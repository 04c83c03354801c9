// Package schemes is the table of every wear-leveling scheme the simulator
// builds by name: the paper's compared set (BWL, SR, TWL_ap, TWL_swp, NOWL)
// and then the extensions, in the order the figures present them. Every
// place that turns a name into a scheme — the twl facade and its
// experiment cells, the sharded runner, twlsimd's job validation and
// internal/sim's tests — resolves it here, so all of them accept the same
// names and build the same schemes.
//
// The table is a leaf package of its own: it cannot live in wl, because
// the scheme packages import wl, and it cannot live in the root package,
// because internal/sim's in-package tests need it and the root imports sim.
package schemes

import (
	"fmt"
	"slices"
	"strings"

	"twl/internal/core"
	"twl/internal/pcm"
	"twl/internal/wl"
	"twl/internal/wl/bwl"
	"twl/internal/wl/nowl"
	"twl/internal/wl/od3p"
	"twl/internal/wl/rbsg"
	"twl/internal/wl/secref"
	"twl/internal/wl/startgap"
	"twl/internal/wl/wrl"
)

// Entry describes one scheme of the table.
type Entry struct {
	// Name is the canonical identifier ("BWL", "TWL_swp", …) as the paper's
	// figures spell it.
	Name string
	// Aliases are extra accepted spellings. Lookups ignore case, so aliases
	// only cover genuinely different names ("TWL" for "TWL_swp").
	Aliases []string
	// Doc is a one-line description for listings.
	Doc string
	// New builds the scheme over a device.
	New func(dev *pcm.Device, seed uint64) (wl.Scheme, error)
}

// twl builds the TWL engine at its default configuration with pairing p.
func twl(p core.Pairing) func(*pcm.Device, uint64) (wl.Scheme, error) {
	return func(dev *pcm.Device, seed uint64) (wl.Scheme, error) {
		cfg := core.DefaultConfig(seed)
		cfg.Pairing = p
		return core.New(dev, cfg)
	}
}

// table lists every scheme in display order.
var table = []Entry{
	{Name: "BWL", Doc: "Bloom-filter dynamic wear leveling (DATE'12)",
		New: func(dev *pcm.Device, seed uint64) (wl.Scheme, error) {
			return bwl.New(dev, bwl.DefaultConfig(dev.Pages(), seed))
		}},
	{Name: "SR", Doc: "Security Refresh, single level (ISCA'10)",
		New: func(dev *pcm.Device, seed uint64) (wl.Scheme, error) {
			return secref.New(dev, secref.DefaultConfig(seed))
		}},
	{Name: "TWL_ap", Doc: "toss-up wear leveling, adjacent pairing", New: twl(core.Adjacent)},
	{Name: "TWL_swp", Aliases: []string{"TWL"}, New: twl(core.StrongWeak),
		Doc: "toss-up wear leveling, strong-weak pairing (the paper's contribution)"},
	{Name: "NOWL", Doc: "no wear leveling (identity mapping)",
		New: func(dev *pcm.Device, _ uint64) (wl.Scheme, error) { return nowl.New(dev), nil }},
	{Name: "TWL_rand", Doc: "toss-up wear leveling, random pairing", New: twl(core.Random)},
	{Name: "WRL", Doc: "Wear Rate Leveling (DAC'11)",
		New: func(dev *pcm.Device, _ uint64) (wl.Scheme, error) {
			return wrl.New(dev, wrl.DefaultConfig(dev.Pages()))
		}},
	{Name: "StartGap", Aliases: []string{"start-gap", "sg"},
		Doc: "Start-Gap with affine address randomization (MICRO'09)",
		New: func(dev *pcm.Device, seed uint64) (wl.Scheme, error) {
			return startgap.New(dev, startgap.DefaultConfig(seed))
		}},
	{Name: "OD3P", Doc: "on-demand page pairing with graceful degradation (reference [1])",
		New: func(dev *pcm.Device, _ uint64) (wl.Scheme, error) {
			return od3p.New(dev, od3p.DefaultConfig())
		}},
	{Name: "RBSG", Doc: "detector-adaptive region-based Start-Gap (references [7]/[11])",
		New: func(dev *pcm.Device, seed uint64) (wl.Scheme, error) {
			return rbsg.New(dev, rbsg.DefaultConfig(dev.Pages(), seed))
		}},
	{Name: "SR2", Doc: "Security Refresh, two level, at full-scale leveling rates (lifetime experiments rescale the intervals; see lifetimeScheme in experiments.go)",
		New: func(dev *pcm.Device, seed uint64) (wl.Scheme, error) {
			return secref.NewFullScaleTwoLevel(dev, seed)
		}},
}

// Names returns the canonical scheme names in display order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

// Lookup finds an entry by name or alias, ignoring case. The entry is a
// copy: changing it leaves the table as it was.
func Lookup(name string) (Entry, bool) {
	same := func(s string) bool { return strings.EqualFold(s, name) }
	for _, e := range table {
		if same(e.Name) || slices.ContainsFunc(e.Aliases, same) {
			e.Aliases = slices.Clone(e.Aliases)
			return e, true
		}
	}
	return Entry{}, false
}

// Build constructs the named scheme over dev. An unknown name wraps
// wl.ErrUnknownScheme and lists the known names; a factory error is wrapped
// with the canonical name.
func Build(name string, dev *pcm.Device, seed uint64) (wl.Scheme, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("schemes: %w: %q (known: %s)",
			wl.ErrUnknownScheme, name, strings.Join(Names(), ", "))
	}
	s, err := e.New(dev, seed)
	if err != nil {
		return nil, fmt.Errorf("schemes: building %s: %w", e.Name, err)
	}
	return s, nil
}

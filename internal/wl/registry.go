package wl

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Sentinel errors for the scheme API. Callers match them with errors.Is
// instead of string-matching messages.
var (
	// ErrUnknownScheme reports a scheme name no registration covers.
	ErrUnknownScheme = errors.New("unknown wear-leveling scheme")
	// ErrDuplicateScheme reports a registration whose name or alias is
	// already taken.
	ErrDuplicateScheme = errors.New("scheme already registered")
	// ErrBadConfig reports an invalid scheme or system configuration.
	ErrBadConfig = errors.New("invalid configuration")
	// ErrCapacityExhausted reports that a lifetime run ended because the
	// fault-tolerance layer ran out of capacity — the spare pool was
	// exhausted or the retirement threshold was crossed — rather than at
	// the device's first page failure. LifetimeResult.FailCause carries it.
	ErrCapacityExhausted = errors.New("spare capacity exhausted")
)

// Registration describes one scheme in a Registry.
type Registration struct {
	// Name is the canonical identifier ("BWL", "TWL_swp", …) as the paper's
	// figures and SchemeNames spell it.
	Name string
	// Aliases are extra accepted spellings; all lookups are
	// case-insensitive, so aliases only cover genuinely different names
	// ("TWL" for "TWL_swp", "sg" for "StartGap").
	Aliases []string
	// Order positions the scheme in Names() — the order the paper's figures
	// present them. Ties break by name.
	Order int
	// Doc is a one-line description for listings.
	Doc string
	// New builds the scheme over a device.
	New Factory
}

// Registry maps scheme names to factories. The package-level Default
// registry is populated by each scheme package's init; tests build their
// own instances.
type Registry struct {
	mu      sync.RWMutex
	byKey   map[string]*Registration // lowercased name/alias -> registration
	ordered []*Registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*Registration{}}
}

// Add registers a scheme. It fails with ErrBadConfig on a registration
// without a name or factory and with ErrDuplicateScheme when the name or
// any alias is already taken (case-insensitively).
func (r *Registry) Add(reg Registration) error {
	if reg.Name == "" {
		return fmt.Errorf("wl: registration needs a Name: %w", ErrBadConfig)
	}
	if reg.New == nil {
		return fmt.Errorf("wl: registration %q needs a New factory: %w", reg.Name, ErrBadConfig)
	}
	keys := make([]string, 0, 1+len(reg.Aliases))
	keys = append(keys, strings.ToLower(reg.Name))
	for _, a := range reg.Aliases {
		keys = append(keys, strings.ToLower(a))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range keys {
		if prev, ok := r.byKey[k]; ok {
			return fmt.Errorf("wl: %q conflicts with %q: %w", reg.Name, prev.Name, ErrDuplicateScheme)
		}
	}
	stored := reg
	stored.Aliases = append([]string(nil), reg.Aliases...)
	for _, k := range keys {
		r.byKey[k] = &stored
	}
	r.ordered = append(r.ordered, &stored)
	sort.SliceStable(r.ordered, func(i, j int) bool {
		if r.ordered[i].Order != r.ordered[j].Order {
			return r.ordered[i].Order < r.ordered[j].Order
		}
		return r.ordered[i].Name < r.ordered[j].Name
	})
	return nil
}

// MustAdd is Add panicking on error, for init-time registration.
func (r *Registry) MustAdd(reg Registration) {
	if err := r.Add(reg); err != nil {
		panic(err)
	}
}

// Lookup finds a registration by name or alias, case-insensitively.
func (r *Registry) Lookup(name string) (Registration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.byKey[strings.ToLower(name)]
	if !ok {
		return Registration{}, false
	}
	return *reg, true
}

// Names returns the canonical scheme names in display order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, len(r.ordered))
	for i, reg := range r.ordered {
		names[i] = reg.Name
	}
	return names
}

// Registrations returns copies of all registrations in display order.
func (r *Registry) Registrations() []Registration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Registration, len(r.ordered))
	for i, reg := range r.ordered {
		out[i] = *reg
	}
	return out
}

// Default is the process-wide registry. Every scheme package registers
// itself here in init, so importing a scheme package (directly or through
// the twl facade) makes it constructible by name.
var Default = NewRegistry()

// Register adds a scheme to the Default registry, panicking on conflict —
// registration happens in package init where a conflict is a programmer
// error.
func Register(reg Registration) { Default.MustAdd(reg) }

// Names lists the Default registry's canonical scheme names in display
// order.
func Names() []string { return Default.Names() }

package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"twl"
	"twl/internal/cache"
	"twl/internal/obs"
	"twl/internal/schemes"
)

// JobSpec is the wire format of one experiment grid: the cross product of
// schemes × workloads × seeds over one system configuration, at most
// maxJobCells cells. Zero-valued system fields take the SmallSystem
// defaults, so a minimal job is just
// {"schemes": ["TWL_swp"], "attacks": ["repeat"]}.
type JobSpec struct {
	// Schemes lists the wear-leveling schemes (SchemeNames vocabulary and
	// its aliases, case-insensitive; canonicalized on submit).
	Schemes []string `json:"schemes"`
	// Attacks and Benches list the workloads; at least one of the two must
	// be non-empty. Every scheme runs against every workload.
	Attacks []string `json:"attacks,omitempty"`
	Benches []string `json:"benches,omitempty"`
	// Seeds lists the system seeds (default: [1]). Every scheme × workload
	// pair runs once per seed.
	Seeds []uint64 `json:"seeds,omitempty"`

	// System configuration; zero values take the SmallSystem defaults.
	Pages         int     `json:"pages,omitempty"`
	PageSize      int     `json:"page_size,omitempty"`
	MeanEndurance float64 `json:"mean_endurance,omitempty"`
	SigmaFraction float64 `json:"sigma_fraction,omitempty"`

	// Shards > 0 routes attack cells through the bank-sharded runner
	// (Pages must divide evenly). Bench cells cannot shard and always run
	// unsharded.
	Shards int `json:"shards,omitempty"`
	// MaxDemandWrites caps each cell (0: the simulator default, 2 × total
	// endurance).
	MaxDemandWrites uint64 `json:"max_demand_writes,omitempty"`
}

// maxJobCells bounds the cells one job may expand to: 65 times the largest
// campaign in current use (1000 cells), yet small enough that a hostile
// spec within the 1 MiB body limit cannot make Submit build and persist
// hundreds of thousands of cells.
const maxJobCells = 1 << 16

// dedupe drops later duplicates from a grid axis, preserving first-seen
// order. Axes must be duplicate-free after canonicalization so one job
// never expands to two cells with the same key — same-key cells share
// checkpoint paths and may only ever run one at a time (the server
// serializes them across jobs; within a job they must not exist at all).
func dedupe[T comparable](in []T) []T {
	seen := make(map[T]struct{}, len(in))
	out := in[:0]
	for _, v := range in {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// normalize validates the spec, fills defaults, canonicalizes scheme names
// and drops duplicate axis entries, so equivalent submissions derive
// identical cell keys and no job holds two cells with the same key.
func (sp *JobSpec) normalize() error {
	if len(sp.Schemes) == 0 {
		return fmt.Errorf("serve: job needs at least one scheme")
	}
	if len(sp.Attacks)+len(sp.Benches) == 0 {
		return fmt.Errorf("serve: job needs at least one attack or bench workload")
	}
	for i, name := range sp.Schemes {
		e, ok := schemes.Lookup(name)
		if !ok {
			return fmt.Errorf("serve: unknown scheme %q (known: %s)",
				name, strings.Join(schemes.Names(), ", "))
		}
		sp.Schemes[i] = e.Name
	}
	sp.Schemes = dedupe(sp.Schemes)
	for _, name := range sp.Attacks {
		if _, err := twl.ParseAttackMode(name); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	sp.Attacks = dedupe(sp.Attacks)
	for _, name := range sp.Benches {
		if _, err := twl.BenchmarkByName(name); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	sp.Benches = dedupe(sp.Benches)
	if len(sp.Seeds) == 0 {
		sp.Seeds = []uint64{1}
	}
	sp.Seeds = dedupe(sp.Seeds)
	// After dedupe a grid has at most a dozen schemes and a score of
	// workloads, so n cannot overflow; bounding the seeds by division keeps
	// the product from overflowing too.
	if n := len(sp.Schemes) * (len(sp.Attacks) + len(sp.Benches)); len(sp.Seeds) > maxJobCells/n {
		return fmt.Errorf("serve: job of %d schemes × %d workloads × %d seeds exceeds %d cells: %w",
			len(sp.Schemes), len(sp.Attacks)+len(sp.Benches), len(sp.Seeds), maxJobCells, twl.ErrBadConfig)
	}
	def := twl.SmallSystem(0)
	if sp.Pages == 0 {
		sp.Pages = def.Pages
	}
	if sp.PageSize == 0 {
		sp.PageSize = def.PageSize
	}
	if sp.MeanEndurance == 0 {
		sp.MeanEndurance = def.MeanEndurance
	}
	if sp.SigmaFraction == 0 {
		sp.SigmaFraction = def.SigmaFraction
	}
	if sp.Shards < 0 {
		return fmt.Errorf("serve: shards must be non-negative, got %d", sp.Shards)
	}
	if sp.Shards > 0 && sp.Pages%sp.Shards != 0 {
		return fmt.Errorf("serve: pages (%d) must divide evenly into %d shards", sp.Pages, sp.Shards)
	}
	return sp.system(sp.Seeds[0]).Validate()
}

// system builds the cell's SystemConfig for one seed.
func (sp JobSpec) system(seed uint64) twl.SystemConfig {
	return twl.SystemConfig{
		Pages:         sp.Pages,
		PageSize:      sp.PageSize,
		MeanEndurance: sp.MeanEndurance,
		SigmaFraction: sp.SigmaFraction,
		Seed:          seed,
	}
}

// Cell statuses. pending → running → one of the terminal three; a preempted
// running cell returns to pending and is re-enqueued on restart.
const (
	cellPending   = "pending"
	cellRunning   = "running"
	cellDone      = "done"
	cellFailed    = "failed"
	cellCancelled = "cancelled"
)

// cell is one scheme × workload × seed simulation of a job. Status, Cached,
// Error and Result are mutable and guarded by the owning Server's mu; the
// identity fields are immutable after construction.
type cell struct {
	Scheme string `json:"scheme"`
	// Source is "attack:<mode>" or "bench:<name>".
	Source string `json:"source"`
	Seed   uint64 `json:"seed"`
	// Key is the content address of the cell's result (see cellMaterial).
	Key    string      `json:"key"`
	Status string      `json:"status"`
	Cached bool        `json:"cached,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *cellResult `json:"result,omitempty"`
}

// name labels the cell in trace events: "TWL_swp/attack:repeat/seed=1".
func (c *cell) name() string {
	return fmt.Sprintf("%s/%s/seed=%d", c.Scheme, c.Source, c.Seed)
}

// sourceKind splits the Source field into its kind ("attack" or "bench")
// and workload name.
func (c *cell) sourceKind() (kind, name string) {
	kind, name, _ = strings.Cut(c.Source, ":")
	return kind, name
}

// cellMaterial is the canonical key material of one cell: every
// construction input that can change the result, in fixed field order,
// under a version prefix so a change to result semantics invalidates old
// cache entries. Sharding is part of the key — a sharded run is a different
// (also deterministic) experiment than an unsharded one, not a different
// route to the same bytes. Bench cells always run unsharded, so they are
// keyed with shards=0 and a resubmission without shards hits the same
// cache entry.
//
// v2 dropped v1's storage-layout field (one layout remains, and it never
// changed a result) and marks the sizing of bench workloads to the
// scheme's logical pages, which changed StartGap's bench results.
// v3 marks sharded cells built as unsharded ones are (SR's rescaled
// two-level scheme, attacks over the scheme's logical pages), which changed
// sharded SR, StartGap and RBSG results, and SR results labelled "SR"
// instead of "SR2".
func cellMaterial(sp JobSpec, scheme, source string, seed uint64) string {
	shards := sp.Shards
	if strings.HasPrefix(source, "bench:") {
		shards = 0
	}
	sys := sp.system(seed)
	return fmt.Sprintf(
		"twlcell/v3|scheme=%s|source=%s|pages=%d|page_size=%d|mean_endurance=%g|sigma_fraction=%g|seed=%d|shards=%d|cap=%d",
		scheme, source, sys.Pages, sys.PageSize, sys.MeanEndurance, sys.SigmaFraction,
		sys.Seed, shards, sp.MaxDemandWrites)
}

// buildCells expands a normalized spec into its deterministic cell list:
// scheme-major, attacks before benches, seeds innermost.
func buildCells(sp JobSpec) []*cell {
	var sources []string
	for _, a := range sp.Attacks {
		sources = append(sources, "attack:"+a)
	}
	for _, b := range sp.Benches {
		sources = append(sources, "bench:"+b)
	}
	var cells []*cell
	for _, scheme := range sp.Schemes {
		for _, src := range sources {
			for _, seed := range sp.Seeds {
				cells = append(cells, &cell{
					Scheme: scheme,
					Source: src,
					Seed:   seed,
					Key:    cache.Key(cellMaterial(sp, scheme, src, seed)),
					Status: cellPending,
				})
			}
		}
	}
	return cells
}

// cellResult is the serializable mirror of twl.LifetimeResult (FailCause is
// an error there, a string here), plus the sharded-run extras when the cell
// ran through the bank-sharded runner.
type cellResult struct {
	Scheme       string       `json:"scheme"`
	DemandWrites uint64       `json:"demand_writes"`
	DemandReads  uint64       `json:"demand_reads"`
	DeviceWrites uint64       `json:"device_writes"`
	SwapWrites   uint64       `json:"swap_writes"`
	Swaps        uint64       `json:"swaps"`
	FailedPage   int          `json:"failed_page"`
	Capped       bool         `json:"capped"`
	FailCause    string       `json:"fail_cause,omitempty"`
	RetiredPages int          `json:"retired_pages,omitempty"`
	SparesUsed   int          `json:"spares_used,omitempty"`
	SparePages   int          `json:"spare_pages,omitempty"`
	Normalized   float64      `json:"normalized_lifetime"`
	Cycles       int64        `json:"cycles"`
	Sharded      *shardedInfo `json:"sharded,omitempty"`
}

// shardedInfo records the partitioning of a cell that ran sharded.
type shardedInfo struct {
	Shards      int      `json:"shards"`
	ShardPages  int      `json:"shard_pages"`
	FailedShard int      `json:"failed_shard"`
	ShardDemand []uint64 `json:"shard_demand"`
}

// fromLifetime converts a simulator result to its wire mirror.
func fromLifetime(r twl.LifetimeResult) cellResult {
	out := cellResult{
		Scheme:       r.Scheme,
		DemandWrites: r.DemandWrites,
		DemandReads:  r.DemandReads,
		DeviceWrites: r.DeviceWrites,
		SwapWrites:   r.SwapWrites,
		Swaps:        r.Swaps,
		FailedPage:   r.FailedPage,
		Capped:       r.Capped,
		RetiredPages: r.RetiredPages,
		SparesUsed:   r.SparesUsed,
		SparePages:   r.SparePages,
		Normalized:   r.Normalized,
		Cycles:       r.Cycles,
	}
	if r.FailCause != nil {
		out.FailCause = r.FailCause.Error()
	}
	return out
}

// toLifetime reconstructs the simulator result. The only FailCause the
// simulator produces today is capacity exhaustion; an unrecognized string
// round-trips as an opaque error with the same text.
func (r cellResult) toLifetime() twl.LifetimeResult {
	out := twl.LifetimeResult{
		Scheme:       r.Scheme,
		DemandWrites: r.DemandWrites,
		DemandReads:  r.DemandReads,
		DeviceWrites: r.DeviceWrites,
		SwapWrites:   r.SwapWrites,
		Swaps:        r.Swaps,
		FailedPage:   r.FailedPage,
		Capped:       r.Capped,
		RetiredPages: r.RetiredPages,
		SparesUsed:   r.SparesUsed,
		SparePages:   r.SparePages,
		Normalized:   r.Normalized,
		Cycles:       r.Cycles,
	}
	switch r.FailCause {
	case "":
	case twl.ErrCapacityExhausted.Error():
		out.FailCause = twl.ErrCapacityExhausted
	default:
		out.FailCause = fmt.Errorf("%s", r.FailCause)
	}
	return out
}

// envelopeVersion versions the cached payload layout; a bump orphans (but
// does not corrupt) old entries — the worker treats a version mismatch as a
// miss and recomputes.
const envelopeVersion = 1

// cellEnvelope is the cached payload of one completed cell: the result plus
// the key material it was derived from, so a cache entry is auditable
// without the submitting job and settles only the cell its material names.
type cellEnvelope struct {
	Version  int        `json:"version"`
	Material string     `json:"material"`
	Result   cellResult `json:"result"`
}

// job is one submitted grid. The mutable state (cell statuses, cancelled,
// the journal handle) is guarded by the owning Server's mu; trace and
// tracer are internally synchronized and safe to use without it.
type job struct {
	id        string
	spec      JobSpec
	cells     []*cell
	cancelled bool
	trace     *obs.TraceBuffer
	tracer    *obs.Tracer
	// journal is the open append handle of the job's journal (see
	// journal.go), nil until the first append after submit, boot or
	// compaction. journalBroken is set when a failed append may have left
	// a partial line, until a compaction replaces the journal.
	journal       *os.File
	journalBroken bool
}

// jobID derives a deterministic identifier: a submission counter plus a
// spec-hash suffix, so restarted daemons never reuse an id for a different
// grid and ids are stable without wall-clock or randomness.
func jobID(n int, sp JobSpec) string {
	b, err := json.Marshal(sp)
	if err != nil {
		// A normalized spec is plain data; this cannot fail short of a
		// programming error.
		panic(err)
	}
	return fmt.Sprintf("job-%04d-%s", n, cache.Key(string(b))[:8])
}

// jobSeq parses the submission counter back out of an id ("job-0007-..." →
// 7); ok is false for foreign file names.
func jobSeq(id string) (int, bool) {
	var n int
	var rest string
	if _, err := fmt.Sscanf(id, "job-%d-%s", &n, &rest); err != nil {
		return 0, false
	}
	return n, true
}

package wl

// This file is the decorator composition layer. A decorator (metrics
// instrumentation, fault-tolerant page retirement, …) overrides a few Scheme
// methods and forwards the rest — but a naive wrapper struct with an embedded
// Scheme silently sheds every *optional* interface the wrapped scheme
// implements: the composed scheme loses the bulk fast path (RunWriter /
// SweepWriter), checkpointability (Snapshotter) and paranoid-mode invariant
// checks (Checker) without any compile-time or runtime signal. Wrap is the
// one place that knows how to build a wrapper whose method set tracks the
// wrapped scheme's capabilities exactly; Instrument and retire.New both
// build on it instead of hand-rolling type switches.

// base supplies the capabilities every composite carries regardless of what
// the wrapped scheme implements: the logical page count (decorators never
// change the address space, so it forwards to the wrapped scheme with the
// usual whole-device fallback) and the Unwrap link that lets helpers like
// AsCapacityReporter find decorator-specific extension interfaces that the
// composite's fixed method set cannot expose.
type base struct {
	body  Scheme // the decorator implementation Wrap was given
	inner Scheme // the scheme it decorates
}

// LogicalPages reports the demand-addressable page count of the wrapped
// scheme. Schemes that reserve physical pages for themselves (StartGap's
// gap page, SecRef's spare region) expose a smaller logical space; a
// decorator must not widen it back to the device size, or traffic generators
// would address pages the scheme never maps.
func (b base) LogicalPages() int { return LogicalPages(b.inner) }

// Unwrap returns the scheme this layer decorates — the next layer down the
// stack.
func (b base) Unwrap() Scheme { return b.inner }

// Body returns the decorator implementation behind this composite.
// Composites hide every method outside the Scheme contract and the
// preserved optional interfaces, so extension interfaces a decorator
// defines for itself (for example the retire decorator's CapacityReporter)
// are found by probing Body while walking Unwrap.
func (b base) Body() Scheme { return b.body }

// Wrap composes a decorator body over the scheme it decorates. The result
// forwards the core Scheme interface to body and implements each optional
// interface — Checker, Snapshotter, RunWriter, SweepWriter — exactly when
// inner implements it, using body's implementation when body provides one
// and forwarding to inner otherwise.
//
// The exposure rule is capability-preserving in both directions:
//
//   - nothing is lost: a checkpointable scheme stays checkpointable and a
//     bulk-writing scheme keeps its fast path through any decorator stack;
//   - nothing is invented: a decorator that happens to implement Snapshot
//     does not make a non-checkpointable scheme look checkpointable — the
//     composite suppresses body methods whose capability inner lacks, so
//     sim.RunLifetime's interface probes see the stack's true abilities.
//
// Decorator bodies normally embed inner (as a Scheme field) for default
// forwarding and override the methods they care about; bodies that override
// a bulk method (WriteRun/WriteSweep) must uphold the same bit-identity
// contract as the scheme they wrap, since Wrap exposes the override whenever
// inner has the capability.
func Wrap(body, inner Scheme) Scheme {
	const (
		hasChecker = 1 << iota
		hasSnapshotter
		hasRunWriter
		hasSweepWriter
	)
	b := base{body: body, inner: inner}
	var (
		ck Checker
		sn Snapshotter
		rw RunWriter
		sw SweepWriter
	)
	mask := 0
	if v, ok := inner.(Checker); ok {
		mask |= hasChecker
		ck = v
		if o, ok := body.(Checker); ok {
			ck = o
		}
	}
	if v, ok := inner.(Snapshotter); ok {
		mask |= hasSnapshotter
		sn = v
		if o, ok := body.(Snapshotter); ok {
			sn = o
		}
	}
	if v, ok := inner.(RunWriter); ok {
		mask |= hasRunWriter
		rw = v
		if o, ok := body.(RunWriter); ok {
			rw = o
		}
	}
	if v, ok := inner.(SweepWriter); ok {
		mask |= hasSweepWriter
		sw = v
		if o, ok := body.(SweepWriter); ok {
			sw = o
		}
	}
	// One anonymous composite type per capability combination: the embedded
	// Scheme carries the core contract (served by body), and each embedded
	// optional interface adds exactly the methods the combination grants.
	// Anonymous types keep these composites out of the package's declared
	// type set — they are shapes, not schemes.
	switch mask {
	case 0:
		return struct {
			Scheme
			base
		}{body, b}
	case hasChecker:
		return struct {
			Scheme
			base
			Checker
		}{body, b, ck}
	case hasSnapshotter:
		return struct {
			Scheme
			base
			Snapshotter
		}{body, b, sn}
	case hasChecker | hasSnapshotter:
		return struct {
			Scheme
			base
			Checker
			Snapshotter
		}{body, b, ck, sn}
	case hasRunWriter:
		return struct {
			Scheme
			base
			RunWriter
		}{body, b, rw}
	case hasChecker | hasRunWriter:
		return struct {
			Scheme
			base
			Checker
			RunWriter
		}{body, b, ck, rw}
	case hasSnapshotter | hasRunWriter:
		return struct {
			Scheme
			base
			Snapshotter
			RunWriter
		}{body, b, sn, rw}
	case hasChecker | hasSnapshotter | hasRunWriter:
		return struct {
			Scheme
			base
			Checker
			Snapshotter
			RunWriter
		}{body, b, ck, sn, rw}
	case hasSweepWriter:
		return struct {
			Scheme
			base
			SweepWriter
		}{body, b, sw}
	case hasChecker | hasSweepWriter:
		return struct {
			Scheme
			base
			Checker
			SweepWriter
		}{body, b, ck, sw}
	case hasSnapshotter | hasSweepWriter:
		return struct {
			Scheme
			base
			Snapshotter
			SweepWriter
		}{body, b, sn, sw}
	case hasChecker | hasSnapshotter | hasSweepWriter:
		return struct {
			Scheme
			base
			Checker
			Snapshotter
			SweepWriter
		}{body, b, ck, sn, sw}
	case hasRunWriter | hasSweepWriter:
		return struct {
			Scheme
			base
			RunWriter
			SweepWriter
		}{body, b, rw, sw}
	case hasChecker | hasRunWriter | hasSweepWriter:
		return struct {
			Scheme
			base
			Checker
			RunWriter
			SweepWriter
		}{body, b, ck, rw, sw}
	case hasSnapshotter | hasRunWriter | hasSweepWriter:
		return struct {
			Scheme
			base
			Snapshotter
			RunWriter
			SweepWriter
		}{body, b, sn, rw, sw}
	default: // all four
		return struct {
			Scheme
			base
			Checker
			Snapshotter
			RunWriter
			SweepWriter
		}{body, b, ck, sn, rw, sw}
	}
}

// Unwrapper is the stack-walking link every Wrap composite exposes: Unwrap
// descends to the wrapped scheme, Body exposes the decorator implementation
// whose extension interfaces the composite's fixed method set hides.
type Unwrapper interface {
	Unwrap() Scheme
	Body() Scheme
}

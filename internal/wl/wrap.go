package wl

// This file is the decorator composition layer. A decorator (today the
// fault-tolerant page retirement of internal/wl/retire) overrides a few
// Scheme methods and forwards the rest. Every Scheme method — invariant
// checks, checkpoints and the same-address fast path included — is part of
// the interface, so a wrapper struct embedding the body forwards them all;
// the one optional capability, the sweep fast path (SweepWriter), is what a
// naive wrapper would shed or invent. Wrap is the one place that builds a
// wrapper whose method set tracks it exactly; retire.New builds on it, and
// a decorator is attached by calling its constructor on a built scheme.

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
// Composites hide every method outside the Scheme contract and SweepWriter,
// so extension interfaces a decorator defines for itself (for example the
// retire decorator's CapacityReporter) are found by probing Body while
// walking Unwrap.
func (b base) Body() Scheme { return b.body }

// Wrap composes a decorator body over the scheme it decorates. The result
// serves every Scheme method through body, and implements SweepWriter
// exactly when inner does, using body's WriteSweep when body provides one
// and forwarding to inner otherwise. A body's WriteSweep over a scheme
// without a sweep fast path stays hidden, so sim.RunLifetime's probe sees
// the stack's true ability and a body may assert SweepWriter on inner
// unconditionally.
//
// Decorator bodies normally embed inner (as a Scheme field) for default
// forwarding and override the methods they care about; bodies that override
// a bulk method (WriteRun/WriteSweep) must uphold the same bit-identity
// contract as the scheme they wrap.
func Wrap(body, inner Scheme) Scheme {
	b := base{body: body, inner: inner}
	sw, ok := inner.(SweepWriter)
	if !ok {
		return struct {
			Scheme
			base
		}{body, b}
	}
	if o, ok := body.(SweepWriter); ok {
		sw = o
	}
	return struct {
		Scheme
		base
		SweepWriter
	}{body, b, sw}
}

// Unwrapper is the stack-walking link every Wrap composite exposes: Unwrap
// descends to the wrapped scheme, Body exposes the decorator implementation
// whose extension interfaces the composite's fixed method set hides.
type Unwrapper interface {
	Unwrap() Scheme
	Body() Scheme
}

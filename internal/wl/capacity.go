package wl

// Capacity reporting: the interface between a fault-tolerance decorator
// (internal/wl/retire) and everything above it. The simulator and the CLIs
// consume capacity state through these types only, so they never import the
// decorator package.

// CapacityPoint is one retirement event on the capacity-vs-writes curve:
// after serving DemandWrites logical writes, the device is down Retired
// visible pages and has consumed SparesUsed spare pages.
type CapacityPoint struct {
	DemandWrites uint64 // demand writes served when the retirement fired
	Retired      int    // distinct visible pages retired so far
	SparesUsed   int    // spare pages consumed so far
}

// CapacityStats summarizes a fault-tolerance decorator's state.
type CapacityStats struct {
	// SparePages is the size of the device's spare pool.
	SparePages int
	// SparesUsed counts spare pages consumed (a visible page's retirement
	// consumes one spare; a spare that itself wears out consumes another).
	SparesUsed int
	// Retired counts distinct visible pages remapped into the spare pool.
	Retired int
	// RetireLimit is the capacity-threshold budget: retiring more than this
	// many visible pages ends the run. It equals the visible page count when
	// no threshold was configured.
	RetireLimit int
	// Exhausted reports that the decorator could not handle a failure —
	// the spare pool ran dry or the capacity threshold was crossed — and
	// left it for the simulator to observe.
	Exhausted bool
	// Curve holds one point per handled retirement, in order.
	Curve []CapacityPoint
}

// CapacityReporter is implemented by fault-tolerance decorators that retire
// failed pages. It is a decorator-specific extension that Wrap composites
// hide: find it with AsCapacityReporter, which walks the Unwrap chain of a
// decorator stack.
type CapacityReporter interface {
	CapacityStats() CapacityStats
}

// AsCapacityReporter finds the first CapacityReporter in a decorator stack,
// probing each layer's body while walking Unwrap links from the outermost
// layer inward.
func AsCapacityReporter(s Scheme) (CapacityReporter, bool) {
	for s != nil {
		if r, ok := s.(CapacityReporter); ok {
			return r, true
		}
		u, ok := s.(Unwrapper)
		if !ok {
			return nil, false
		}
		if r, ok := u.Body().(CapacityReporter); ok {
			return r, true
		}
		s = u.Unwrap()
	}
	return nil, false
}

// Package fixlocks exercises the locks analyzer: calls to the sync/atomic
// package-level functions and uses of atomic.Value, next to the typed
// atomics, which must stay finding-free.
package fixlocks

import "sync/atomic"

// racy keeps its flag in a plain integer behind the package functions.
type racy struct{ flag int32 }

// Race stores atomically then reads plainly: finding on the call.
func Race(r *racy) bool {
	atomic.StoreInt32(&r.flag, 1)
	return r.flag == 1
}

// box holds an atomic.Value: finding on the type.
type box struct{ v atomic.Value }

// Load reads the box: no further finding, the type was reported above.
func (b *box) Load() any { return b.v.Load() }

// Hot carries its count in a typed atomic: clean.
type Hot struct{ n atomic.Int64 }

// Inc goes through the typed atomic's methods: clean.
func (h *Hot) Inc() int64 { return h.n.Add(1) }

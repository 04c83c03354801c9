// Package fixhot is the hotpath analyzer's fixture: //twl:hotpath functions
// that heap-allocate, directly or through an inlined helper, next to hot
// functions that must stay finding-free.
package fixhot

// HotClean is a hot path with no heap allocations (no finding).
//
//twl:hotpath
func HotClean(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}

// HotAlloc allocates on every call — a variable-sized make always lands on
// the heap (finding).
//
//twl:hotpath
func HotAlloc(n int) int {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i)
	}
	s := 0
	for _, b := range buf {
		s += int(b)
	}
	return s
}

// grow is small enough to inline, and escape analysis reports an inlined
// make at the caller's call line.
func grow(n int) []byte { return make([]byte, n) }

// HotInlined allocates through the inlined grow (finding at the call).
//
//twl:hotpath
func HotInlined(n int) int {
	buf := grow(n)
	return len(buf)
}

// growCold is the wl.Scratch idiom: kept out of line, so its make is
// reported at its own line, outside any hot function.
//
//go:noinline
func growCold(n int) []byte { return make([]byte, n) }

// HotNoinline grows through the out-of-line helper (no finding).
//
//twl:hotpath
func HotNoinline(n int) int {
	buf := growCold(n)
	return len(buf)
}

// Package fixconc is the concurrency analyzer's fixture: unjoined
// goroutines, accesses to //twl:guardedby state outside its critical
// section and a guard name that names no mutex, next to the correct forms
// of each, which must stay finding-free.
package fixconc

import (
	"sync"
)

func sink(int) {}

// counter carries a mutex-guarded field.
type counter struct {
	mu sync.Mutex
	n  int //twl:guardedby mu
}

// badInc touches the guarded field without the lock (finding).
func (c *counter) badInc() { c.n++ }

// goodInc holds the lock across the access (no finding).
func (c *counter) goodInc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// lockedRead is called with c.mu already held (no finding).
//
//twl:locked mu
func (c *counter) lockedRead() int { return c.n }

var (
	tableMu sync.Mutex
	table   = map[string]int{} //twl:guardedby tableMu
)

// badTable writes the package-level guarded map without its lock (finding).
func badTable(k string) { table[k]++ }

// goodTable locks first (no finding).
func goodTable(k string) {
	tableMu.Lock()
	defer tableMu.Unlock()
	table[k]++
}

// typo's guard name matches no mutex (finding at the annotation): left
// unresolved, it would accept any Lock before the read as its own.
type typo struct {
	mu    sync.Mutex
	other sync.Mutex
	n     int //twl:guardedby mux
}

// readTypo holds a lock, but not one the annotation could name; the
// annotation's finding stands for this read.
func (s *typo) readTypo() int { s.other.Lock(); defer s.other.Unlock(); return s.n }

// leak spawns a goroutine with no join at all (finding).
func leak() {
	go func() { sink(1) }()
}

// joined passes the work item explicitly and joins through the WaitGroup
// (no finding).
func joined(work []int) []int {
	results := make([]int, len(work))
	var wg sync.WaitGroup
	for i, v := range work {
		wg.Add(1)
		go func(i, v int) {
			defer wg.Done()
			results[i] = v * v
		}(i, v)
	}
	wg.Wait()
	return results
}

// doneChan joins its producer through a channel receive (no finding).
func doneChan() int {
	ch := make(chan int)
	go func() { ch <- 42 }()
	return <-ch
}

func helper() {}

// leakNamed spawns a named function with no join handshake in its arguments
// (finding).
func leakNamed() { go helper() }

func worker(wg *sync.WaitGroup) { defer wg.Done() }

// namedJoined hands the named function a WaitGroup to Done (no finding).
func namedJoined() {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker(&wg)
	wg.Wait()
}

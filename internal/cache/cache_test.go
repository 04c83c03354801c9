package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestKeyDerivation: the key is a stable sha256 of the material — same
// material, same key; different material, different key.
func TestKeyDerivation(t *testing.T) {
	a := Key("v1|scheme=TWL_swp|attack=repeat|seed=1")
	b := Key("v1|scheme=TWL_swp|attack=repeat|seed=1")
	c := Key("v1|scheme=TWL_swp|attack=repeat|seed=2")
	if a != b {
		t.Errorf("same material produced different keys: %s vs %s", a, b)
	}
	if a == c {
		t.Error("different material produced the same key")
	}
	if len(a) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(a))
	}
}

// TestGetPutRoundTrip: a stored payload comes back byte-identical; the
// counters track hits and misses.
func TestGetPutRoundTrip(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("cell-1")
	if _, ok, err := c.Get(key); err != nil || ok {
		t.Fatalf("fresh cache hit: ok=%v err=%v", ok, err)
	}
	payload := []byte(`{"demand_writes":123}`)
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("stored entry missing: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload round-trip: got %q", got)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss", st)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d/%v, want 1", n, err)
	}
}

// TestEntriesSurviveReopen: the store is durable — a fresh Cache over the
// same directory serves entries written by a previous one (the service's
// restart path).
func TestEntriesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("cell-2")
	if err := c1.Put(key, []byte("result")); err != nil {
		t.Fatal(err)
	}
	c2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := c2.Get(key)
	if err != nil || !ok || string(got) != "result" {
		t.Fatalf("reopened cache: got %q ok=%v err=%v", got, ok, err)
	}
}

// TestFanout: entries land under two-hex-digit subdirectories and no temp
// files survive a Put.
func TestFanout(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("cell-3")
	if err := c.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, key[:2], key[2:]+".json")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("entry not at fanout path %s: %v", want, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, key[:2]))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			t.Errorf("non-entry file %s in fanout dir", e.Name())
		}
	}
}

// TestShortKeyRejected: malformed keys are errors, not silent misses.
func TestShortKeyRejected(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("ab"); err == nil {
		t.Error("short key accepted by Get")
	}
	if err := c.Put("ab", []byte("x")); err == nil {
		t.Error("short key accepted by Put")
	}
}

// TestConcurrentAccess hammers one cache from many goroutines under -race:
// concurrent Puts of the same key and mixed Get/Put of distinct keys must
// be safe and end with every entry readable.
func TestConcurrentAccess(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const keys = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := Key(fmt.Sprintf("cell-%d", i))
				payload := []byte(fmt.Sprintf(`{"cell":%d}`, i))
				if err := c.Put(key, payload); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got, ok, err := c.Get(key); err != nil || !ok || !bytes.Equal(got, payload) {
					t.Errorf("worker %d key %d: got %q ok=%v err=%v", w, i, got, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, err := c.Len(); err != nil || n != keys {
		t.Errorf("Len = %d/%v, want %d", n, err, keys)
	}
}

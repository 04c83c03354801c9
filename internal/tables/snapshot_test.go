package tables

import (
	"bytes"
	"math/rand"
	"testing"

	"twl/internal/snap"
)

// TestRemapSnapshotWireFormat pins the RT checkpoint encoding: both
// directions as length-prefixed int64 columns (snap.Writer.Ints), and a
// restore that reproduces the mapping exactly.
func TestRemapSnapshotWireFormat(t *testing.T) {
	const n = 64
	r := NewRemap(n)
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 300; op++ {
		r.SwapLogical(rng.Intn(n), rng.Intn(n))
	}
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	phys, log := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		phys[i], log[i] = r.Phys(i), r.Log(i)
	}
	var want bytes.Buffer
	sw := snap.NewWriter(&want)
	sw.Ints(phys)
	sw.Ints(log)
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("snapshot is %d bytes, want the %d-byte int64 column encoding", buf.Len(), want.Len())
	}
	restored := NewRemap(n)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for la := 0; la < n; la++ {
		if restored.Phys(la) != r.Phys(la) {
			t.Fatalf("restored Phys(%d) = %d, want %d", la, restored.Phys(la), r.Phys(la))
		}
	}
}

// TestRemapRestoreRejects verifies length and range validation.
func TestRemapRestoreRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRemap(8).Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := NewRemap(9).Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into wrong-size table succeeded")
	}
	for _, bad := range []int{-1, 1 << 32} {
		var nbuf bytes.Buffer
		sw := snap.NewWriter(&nbuf)
		sw.Ints([]int{0, 1, bad, 3})
		sw.Ints([]int{0, 1, 2, 3})
		if err := sw.Err(); err != nil {
			t.Fatalf("write corrupt stream: %v", err)
		}
		if err := NewRemap(4).Restore(bytes.NewReader(nbuf.Bytes())); err == nil {
			t.Fatalf("restore of out-of-range entry %d succeeded", bad)
		}
	}
}

// TestTableBytes spot-checks the Bytes accounting against the known layout.
func TestTableBytes(t *testing.T) {
	const n = 100
	if got := NewRemap(n).Bytes(); got != 8*n {
		t.Fatalf("Remap.Bytes = %d, want %d", got, 8*n)
	}
	wc := NewWriteCounts(n)
	wc.Record(3)
	wc.Record(7)
	if got := wc.Bytes(); got != 8*n+16 {
		t.Fatalf("WriteCounts.Bytes = %d, want %d", got, 8*n+16)
	}
	pt, err := NewPairTable(n)
	if err != nil {
		t.Fatalf("NewPairTable: %v", err)
	}
	if got := pt.Bytes(); got != 4*n {
		t.Fatalf("PairTable.Bytes = %d, want %d", got, 4*n)
	}
	if got := NewCounter(n).Bytes(); got != n {
		t.Fatalf("Counter.Bytes = %d, want %d", got, n)
	}
}

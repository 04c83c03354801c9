package tables

import (
	"fmt"
	"io"
	"math"

	"twl/internal/snap"
)

// Checkpoint persistence for the mutable metadata tables. Every table
// persists its complete contents — they are pure workload state with no
// derived caches — so Restore only validates that the stream's geometry
// matches the receiver. The pair table has no snapshot: pairings are
// endurance-derived statics, rebuilt at construction.

// Snapshot serializes both directions of the mapping. Entries go out as
// int64, wider than the uint32 they are stored in, so the wire format does
// not depend on the storage width.
func (r *Remap) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	writeU32sAsInts(sw, r.toPhys)
	writeU32sAsInts(sw, r.toLog)
	return sw.Err()
}

// Restore loads a mapping written by Snapshot into a table of the same size.
func (r *Remap) Restore(rd io.Reader) error {
	sr := snap.NewReader(rd)
	if err := readIntsIntoU32s(sr, r.toPhys, "remap toPhys"); err != nil {
		return err
	}
	if err := readIntsIntoU32s(sr, r.toLog, "remap toLog"); err != nil {
		return err
	}
	return r.CheckBijection()
}

// writeU32sAsInts emits a uint32 column in the length-prefixed int64 wire
// format of snap.Writer.Ints.
func writeU32sAsInts(sw *snap.Writer, vs []uint32) {
	sw.U32(uint32(len(vs)))
	for _, v := range vs {
		sw.I64(int64(v))
	}
}

// readIntsIntoU32s fills a uint32 column from the int64 wire format,
// rejecting a length mismatch and entries outside the uint32 range.
func readIntsIntoU32s(sr *snap.Reader, dst []uint32, what string) error {
	if got := sr.U32(); sr.Err() == nil && int(got) != len(dst) {
		return fmt.Errorf("tables: %s length %d does not match destination %d", what, got, len(dst))
	}
	for i := range dst {
		v := sr.I64()
		if v < 0 || v > math.MaxUint32 {
			return fmt.Errorf("tables: %s entry %d = %d outside the uint32 range", what, i, v)
		}
		dst[i] = uint32(v)
	}
	return sr.Err()
}

// Snapshot serializes the counters and the first-touch order. The order
// matters: WRL's swap phase sorts Touched() with a stable comparison, so
// reproducing the pre-sort sequence is part of bit-identical resume.
func (w *WriteCounts) Snapshot(wr io.Writer) error {
	sw := snap.NewWriter(wr)
	sw.U64s(w.counts)
	sw.Ints(w.touched)
	return sw.Err()
}

// Restore loads counters written by Snapshot.
func (w *WriteCounts) Restore(rd io.Reader) error {
	sr := snap.NewReader(rd)
	sr.U64sInto(w.counts)
	w.touched = sr.IntSlice(len(w.counts))
	return sr.Err()
}

// Snapshot serializes the counter entries.
func (c *Counter) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.U8s(c.counts)
	return sw.Err()
}

// Restore loads entries written by Snapshot.
func (c *Counter) Restore(rd io.Reader) error {
	sr := snap.NewReader(rd)
	sr.U8sInto(c.counts)
	return sr.Err()
}

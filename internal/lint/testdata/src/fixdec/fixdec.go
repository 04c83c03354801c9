// Package fixdec exercises the decorator analyzer: named struct types that
// embed the wl.Scheme interface and declare their own Write must declare
// every check, snapshot and bulk-write method, and ReadN beside Read, or the
// embedded scheme's methods serve those paths without the decorator's
// interception.
package fixdec

import (
	"io"

	"twl/internal/wl"
)

// Leaky embeds wl.Scheme and overrides Write but declares none of the
// other paths: five findings, one per undeclared method.
type Leaky struct{ wl.Scheme }

func (d *Leaky) Write(la int, tag uint64) wl.Cost { return d.Scheme.Write(la, tag) }

// Partial intercepts the bulk paths but not the check or the snapshot:
// three findings.
type Partial struct{ wl.Scheme }

func (d *Partial) Write(la int, tag uint64) wl.Cost { return d.Scheme.Write(la, tag) }
func (d *Partial) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	return d.Scheme.WriteRun(la, tag, n)
}
func (d *Partial) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	return d.Scheme.(wl.SweepWriter).WriteSweep(la, tag, n)
}

// Complete intercepts every path: clean.
type Complete struct{ wl.Scheme }

func (d *Complete) Write(la int, tag uint64) wl.Cost { return d.Scheme.Write(la, tag) }
func (d *Complete) Read(la int) (uint64, wl.Cost)    { return d.Scheme.Read(la) }
func (d *Complete) ReadN(n int) wl.Cost              { return d.Scheme.ReadN(n) }
func (d *Complete) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	return d.Scheme.WriteRun(la, tag, n)
}
func (d *Complete) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	return d.Scheme.(wl.SweepWriter).WriteSweep(la, tag, n)
}
func (d *Complete) CheckInvariants() error       { return d.Scheme.CheckInvariants() }
func (d *Complete) Snapshot(out io.Writer) error { return d.Scheme.Snapshot(out) }
func (d *Complete) Restore(in io.Reader) error   { return d.Scheme.Restore(in) }

// ReadLeak intercepts every write-side path and Read, but not ReadN: one
// finding — bulk reads reach the embedded scheme uncounted.
type ReadLeak struct{ wl.Scheme }

func (d *ReadLeak) Write(la int, tag uint64) wl.Cost { return d.Scheme.Write(la, tag) }
func (d *ReadLeak) Read(la int) (uint64, wl.Cost)    { return d.Scheme.Read(la) }
func (d *ReadLeak) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	return d.Scheme.WriteRun(la, tag, n)
}
func (d *ReadLeak) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	return d.Scheme.(wl.SweepWriter).WriteSweep(la, tag, n)
}
func (d *ReadLeak) CheckInvariants() error       { return d.Scheme.CheckInvariants() }
func (d *ReadLeak) Snapshot(out io.Writer) error { return d.Scheme.Snapshot(out) }
func (d *ReadLeak) Restore(in io.Reader) error   { return d.Scheme.Restore(in) }

// Forwarder embeds wl.Scheme but declares no Write of its own — it
// interposes on nothing, so the rule does not apply: clean.
type Forwarder struct {
	wl.Scheme
	label string
}

// Holder has a plain (non-embedded) scheme field and its own Write; not a
// promotion hazard, so the rule does not apply: clean.
type Holder struct {
	inner wl.Scheme
}

func (h *Holder) Write(la int, tag uint64) wl.Cost { return h.inner.Write(la, tag) }

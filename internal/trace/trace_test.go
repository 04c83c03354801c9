package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{{Write, 0}, {Read, 42}, {Write, 1 << 40}, {Read, 7}}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(recs) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	r := NewReader(&buf)
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTextReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nW 5\n  \n# note\nR 6\n"
	r := NewReader(strings.NewReader(in))
	got1, err := r.Read()
	if err != nil || got1 != (Record{Write, 5}) {
		t.Fatalf("got %+v, %v", got1, err)
	}
	got2, err := r.Read()
	if err != nil || got2 != (Record{Read, 6}) {
		t.Fatalf("got %+v, %v", got2, err)
	}
}

func TestTextReaderErrors(t *testing.T) {
	for _, in := range []string{"X 5\n", "W\n", "W abc\n", "W 1 2\n"} {
		r := NewReader(strings.NewReader(in))
		if _, err := r.Read(); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestWriterRejectsBadOp(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Record{Op: 'Z'}); err == nil {
		t.Fatal("bad op accepted")
	}
}

// Package trace provides memory-access traces for the benchmark
// experiments: a record format with a text codec, and a synthetic PARSEC
// workload generator.
//
// The paper collects traces from gem5 running the PARSEC suite (Table 2) and
// replays them in loops until a PCM page wears out. gem5 and the PARSEC
// inputs are not available offline, so each benchmark is modeled as a
// Zipf-distributed page-write stream calibrated against the two numbers
// Table 2 reports per benchmark: the write bandwidth (which sets the
// real-time scale) and the ratio of no-wear-leveling lifetime to ideal
// lifetime (which pins the hot-page concentration — precisely the property
// wear-leveling evaluation depends on). See DESIGN.md, substitution 1.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Op is a memory operation kind.
type Op byte

const (
	// Read is a page read.
	Read Op = 'R'
	// Write is a page write.
	Write Op = 'W'
)

// Record is one trace entry: an operation on a logical page.
type Record struct {
	Op   Op
	Addr uint64
}

// Writer encodes records in the text format, one "R addr" / "W addr" line
// per record.
type Writer struct {
	w   *bufio.Writer
	n   int
	err error
}

// NewWriter returns a text-format trace writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (t *Writer) Write(r Record) error {
	if t.err != nil {
		return t.err
	}
	if r.Op != Read && r.Op != Write {
		return fmt.Errorf("trace: invalid op %q", r.Op)
	}
	_, t.err = fmt.Fprintf(t.w, "%c %d\n", r.Op, r.Addr)
	if t.err == nil {
		t.n++
	}
	return t.err
}

// Count returns how many records have been written.
func (t *Writer) Count() int { return t.n }

// Flush flushes buffered output.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Reader decodes the text format produced by Writer.
type Reader struct {
	s    *bufio.Scanner
	line int
}

// NewReader returns a text-format trace reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{s: bufio.NewScanner(r)}
}

// Read returns the next record, or io.EOF at end of input.
func (t *Reader) Read() (Record, error) {
	for t.s.Scan() {
		t.line++
		line := strings.TrimSpace(t.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return Record{}, fmt.Errorf("trace: line %d: want \"op addr\", got %q", t.line, line)
		}
		var op Op
		switch fields[0] {
		case "R", "r":
			op = Read
		case "W", "w":
			op = Write
		default:
			return Record{}, fmt.Errorf("trace: line %d: unknown op %q", t.line, fields[0])
		}
		addr, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("trace: line %d: bad address: %v", t.line, err)
		}
		return Record{Op: op, Addr: addr}, nil
	}
	if err := t.s.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

package trace

import (
	"strings"
	"testing"
)

// FuzzTextReader guards the decoder against hostile or corrupt trace files:
// it must return errors, never panic or loop. `go test` runs the seed
// corpus; `go test -fuzz=FuzzTextReader` explores further.

func FuzzTextReader(f *testing.F) {
	f.Add("W 1\nR 2\n")
	f.Add("# comment\n\nw 18446744073709551615\n")
	f.Add("X 5\n")
	f.Add("W\n")
	f.Add("W 99999999999999999999999\n")
	f.Fuzz(func(t *testing.T, in string) {
		r := NewReader(strings.NewReader(in))
		for i := 0; i < 10000; i++ {
			rec, err := r.Read()
			if err != nil {
				return // EOF or a parse error; both fine
			}
			if rec.Op != Read && rec.Op != Write {
				t.Fatalf("decoder produced invalid op %q", rec.Op)
			}
		}
	})
}

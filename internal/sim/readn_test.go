package sim

import (
	"bytes"
	"fmt"
	"testing"

	"twl/internal/rng"
	"twl/internal/wl"
	"twl/internal/wl/od3p"
	"twl/internal/wl/retire"
	"twl/internal/wl/wltest"
)

// TestReadNContract holds every registered scheme, bare and under the
// retirement decorator, to the wl.Scheme.ReadN contract. Two identical
// twins take the same seeded write prefix; then one serves ReadN(k) and the
// other k Read calls at seeded in-range addresses. Stats, the device read
// counter and the scheme and device snapshot bytes must match, and every
// Read must return ReadN's cost. The prefix writes a small hot set well past its endurance, so pages
// fail first: OD3P pairs them (its dead-page Read branch then reads the
// partner) and the retirement decorator remaps them to spares.
func TestReadNContract(t *testing.T) {
	const (
		pages     = 64
		endurance = 300
		hot       = 4
		prefix    = 4000
	)
	stacks := []struct {
		name   string
		spares int
	}{
		{"bare", 0},
		{"retired", retireSpares},
	}
	build := func(t *testing.T, name string, spares int) wl.Scheme {
		t.Helper()
		dev := wltest.NewSpareDevice(t, pages, spares, endurance, diffSeed)
		s, err := wl.Default.Build(name, dev, diffSeed)
		if err != nil {
			t.Fatal(err)
		}
		if spares > 0 {
			if s, err = retire.New(s, retire.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		r := rng.NewXorshift(diffSeed)
		for i := 0; i < prefix; i++ {
			la := r.Intn(hot)
			if i%8 == 0 {
				la = r.Intn(wl.LogicalPages(s))
			}
			_ = s.Write(la, uint64(i)) // only the resulting state matters
		}
		return s
	}
	for _, name := range wl.Names() {
		for _, stack := range stacks {
			for _, k := range []int{0, 1, 7, 500} {
				t.Run(fmt.Sprintf("%s/%s/%d", name, stack.name, k), func(t *testing.T) {
					bulk := build(t, name, stack.spares)
					each := build(t, name, stack.spares)
					if o, ok := bulk.(*od3p.Scheme); ok && o.Pairings() == 0 {
						t.Fatal("write prefix formed no OD3P pairing; the dead-page read branch is untested")
					}

					cost := bulk.ReadN(k)
					r := rng.NewXorshift(diffSeed + 1)
					for i := 0; i < k; i++ {
						la := r.Intn(wl.LogicalPages(each))
						if i%2 == 0 {
							la = r.Intn(hot)
						}
						if _, c := each.Read(la); c != cost {
							t.Fatalf("Read(%d) cost %+v, ReadN cost %+v", la, c, cost)
						}
					}

					if got, want := bulk.Stats(), each.Stats(); got != want {
						t.Errorf("Stats: ReadN %+v, Read %+v", got, want)
					}
					if got, want := bulk.Device().TotalReads(), each.Device().TotalReads(); got != want {
						t.Errorf("device reads: ReadN %d, Read %d", got, want)
					}
					if got, want := stateBytes(t, bulk), stateBytes(t, each); !bytes.Equal(got, want) {
						t.Error("scheme+device snapshot bytes differ")
					}
				})
			}
		}
	}
}

// stateBytes is a scheme's checkpoint image: its own snapshot followed by
// its device's.
func stateBytes(t *testing.T, s wl.Scheme) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Device().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

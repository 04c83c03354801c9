package core

import (
	"testing"

	"twl/internal/pcm"
	"twl/internal/tables"
)

// refTossDistance is the per-write countdown reference for tossUpDistance:
// step the 7-bit WCT one Inc at a time until the toss-up condition from
// Engine.Write fires (value wraps to zero, or reaches the interval). The
// wrap covers interval == tables.MaxInterval, where `>= interval` is
// unreachable in 7 bits.
func refTossDistance(v uint8, interval int) int {
	for i := 1; ; i++ {
		nv := uint8(int(v)+i) & (1<<tables.WCTBits - 1)
		if nv == 0 || int(nv) >= interval {
			return i
		}
	}
}

// refIPSDistance is the per-write countdown reference for ipsDistance:
// count increments until the post-increment compare in Engine.Write fires.
func refIPSDistance(c uint32, interval int) int {
	for i := 1; ; i++ {
		if int64(c)+int64(i) >= int64(interval) {
			return i
		}
	}
}

// fuzzEngine builds a small TWL engine whose starting state matches the
// fuzz tuple: WCT of the target pair advanced to v (by Incs, the only
// mutator), the target page's inter-pair counter preset, and per-page
// endurance low enough that runs routinely hit the failure clamp. The
// seeded counters are folded into the *reachable* state space — a live WCT
// always sits below the interval and an IPS counter below its interval
// (CheckInvariants enforces both) — so the differential starts from a state
// the per-write path could actually be in.
func fuzzEngine(t *testing.T, cfg Config, la int, v uint8, ips uint32, margin uint8) *Engine {
	t.Helper()
	if cfg.TossUpInterval < tables.MaxInterval {
		v %= uint8(cfg.TossUpInterval)
	}
	geom := pcm.DefaultGeometry()
	geom.Pages = 16
	endurance := make([]uint64, geom.Pages)
	for i := range endurance {
		endurance[i] = uint64(margin) + 1 + uint64(i%3)
	}
	dev, err := pcm.NewDevice(geom, pcm.DefaultTiming(), endurance)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.pairRep(e.rt.Phys(la))
	for i := 0; i < int(v); i++ {
		e.wct.Inc(rep)
	}
	if cfg.InterPairSwapInterval > 0 {
		e.ips[la] = uint8(ips % uint32(cfg.InterPairSwapInterval))
	}
	return e
}

// compareEngines requires bit-identical engine and device state — the
// property the fast-forward contract promises after any WriteRun/WriteSweep
// sequence versus the per-write equivalent.
func compareEngines(t *testing.T, fast, slow *Engine) {
	t.Helper()
	df, ds := fast.dev, slow.dev
	if df.TotalWrites() != ds.TotalWrites() {
		t.Fatalf("device writes: fast %d, slow %d", df.TotalWrites(), ds.TotalWrites())
	}
	for pp := 0; pp < df.Pages(); pp++ {
		if df.Wear(pp) != ds.Wear(pp) {
			t.Fatalf("wear[%d]: fast %d, slow %d", pp, df.Wear(pp), ds.Wear(pp))
		}
		if df.Peek(pp) != ds.Peek(pp) {
			t.Fatalf("payload[%d]: fast %d, slow %d", pp, df.Peek(pp), ds.Peek(pp))
		}
		if fast.rt.Phys(fast.rt.Log(pp)) != pp {
			t.Fatalf("fast RT lost bijectivity at %d", pp)
		}
		if fast.wct.Get(fast.pairRep(pp)) != slow.wct.Get(slow.pairRep(pp)) {
			t.Fatalf("wct[pair of %d]: fast %d, slow %d",
				pp, fast.wct.Get(fast.pairRep(pp)), slow.wct.Get(slow.pairRep(pp)))
		}
	}
	for la := range fast.ips {
		if fast.rt.Phys(la) != slow.rt.Phys(la) {
			t.Fatalf("rt[%d]: fast %d, slow %d", la, fast.rt.Phys(la), slow.rt.Phys(la))
		}
		if fast.ips[la] != slow.ips[la] {
			t.Fatalf("ips[%d]: fast %d, slow %d", la, fast.ips[la], slow.ips[la])
		}
	}
	if fast.stats != slow.stats {
		t.Fatalf("stats: fast %+v, slow %+v", fast.stats, slow.stats)
	}
	if err := fast.CheckInvariants(); err != nil {
		t.Fatalf("fast engine invariants: %v", err)
	}
	if err := slow.CheckInvariants(); err != nil {
		t.Fatalf("slow engine invariants: %v", err)
	}
}

// FuzzEventHorizon fuzzes the event-horizon arithmetic behind the TWL fast
// path. For every tuple (WCT value, toss-up interval, IPS counter and
// interval, run length, endurance margin) it checks that
//
//  1. the O(1) distance helpers agree with a literal per-write countdown,
//     including the wrap-at-zero edge at interval == tables.MaxInterval;
//  2. driving WriteRun through the caller protocol (absorb, fall back to
//     Write on absorbed == 0) leaves engine, device, RNG and stats state
//     bit-identical to per-write Writes — including runs clamped by a page
//     reaching its endurance mid-run;
//  3. the same holds for WriteSweep over a cycling address sweep.
func FuzzEventHorizon(f *testing.F) {
	f.Add(uint8(0), uint8(31), uint32(0), uint16(100), uint16(50), uint8(10), uint8(0))
	f.Add(uint8(127), uint8(127), uint32(9999), uint16(0), uint16(300), uint8(3), uint8(1))
	f.Add(uint8(64), uint8(0), uint32(7), uint16(1), uint16(513), uint8(255), uint8(5))
	f.Add(uint8(1), uint8(119), uint32(42), uint16(8), uint16(64), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, v uint8, iv uint8, ips uint32, ipsIv uint16, n16 uint16, margin uint8, mode uint8) {
		v &= 1<<tables.WCTBits - 1
		interval := int(iv)%tables.MaxInterval + 1
		ipsInterval := int(ipsIv) % 200 // 0 disables the inter-pair swap
		n := int(n16)%600 + 1

		if got, want := tossUpDistance(v, interval), refTossDistance(v, interval); got != want {
			t.Fatalf("tossUpDistance(%d, %d) = %d, countdown gives %d", v, interval, got, want)
		}
		if ipsInterval > 0 {
			c := uint8(ips)
			if got, want := ipsDistance(c, ipsInterval), refIPSDistance(uint32(c), ipsInterval); got != want {
				t.Fatalf("ipsDistance(%d, %d) = %d, countdown gives %d", c, ipsInterval, got, want)
			}
		}

		cfg := DefaultConfig(uint64(v)*131 + uint64(ips) + 1)
		cfg.Pairing = Pairing(int(mode) % 3)
		cfg.UseFeistel = mode&4 == 0
		cfg.TossUpInterval = interval
		cfg.InterPairSwapInterval = ipsInterval
		la := int(mode) % 16

		// Same-address run: fast side uses the bulk-loop protocol, slow side
		// is the literal per-write loop. Both stop at n writes or the first
		// page failure.
		fast := fuzzEngine(t, cfg, la, v, ips, margin)
		slow := fuzzEngine(t, cfg, la, v, ips, margin)
		served := 0
		for served < n {
			if _, failed := fast.dev.Failed(); failed {
				break
			}
			cost, applied := fast.WriteRun(la, uint64(served), n-served)
			if applied > 0 {
				if cost.Blocked {
					t.Fatal("WriteRun absorbed a blocked write")
				}
				served += applied
				continue
			}
			fast.Write(la, uint64(served))
			served++
		}
		for i := 0; i < served; i++ {
			if _, failed := slow.dev.Failed(); failed {
				t.Fatalf("slow run failed after %d writes, fast served %d", i, served)
			}
			slow.Write(la, uint64(i))
		}
		if _, failed := fast.dev.Failed(); !failed && served < n {
			t.Fatalf("fast run stopped at %d/%d without a failure", served, n)
		}
		compareEngines(t, fast, slow)

		// Consecutive-address sweep cycling over the page range.
		fast = fuzzEngine(t, cfg, la, v, ips, margin)
		slow = fuzzEngine(t, cfg, la, v, ips, margin)
		pages := fast.dev.Pages()
		served = 0
		for served < n {
			if _, failed := fast.dev.Failed(); failed {
				break
			}
			a := served % pages
			run := pages - a
			if rem := n - served; rem < run {
				run = rem
			}
			cost, applied := fast.WriteSweep(a, uint64(served), run)
			if applied > 0 {
				if cost.Blocked {
					t.Fatal("WriteSweep absorbed a blocked write")
				}
				served += applied
				continue
			}
			fast.Write(a, uint64(served))
			served++
		}
		for i := 0; i < served; i++ {
			if _, failed := slow.dev.Failed(); failed {
				t.Fatalf("slow sweep failed after %d writes, fast served %d", i, served)
			}
			slow.Write(i%pages, uint64(i))
		}
		if _, failed := fast.dev.Failed(); !failed && served < n {
			t.Fatalf("fast sweep stopped at %d/%d without a failure", served, n)
		}
		compareEngines(t, fast, slow)
	})
}

// Package rng provides the deterministic random-number sources used by the
// wear-leveling schemes and the simulator.
//
// Two families are provided:
//
//   - Xorshift: a fast 64-bit xorshift* generator used by the simulator,
//     trace generators and attacks.
//   - Feistel: an 8-bit Feistel-network generator, the hardware RNG the
//     paper budgets at fewer than 128 logic gates (Section 5.4). The TWL
//     engine uses it by default so the reproduction exercises the same
//     component the paper synthesizes.
//
// All sources are seedable and fully deterministic so every experiment in
// this repository is reproducible bit-for-bit.
package rng

// Source is the minimal interface the wear-leveling engines need: a stream
// of uniform 64-bit values plus convenience derivations. All methods must be
// deterministic given the seed.
type Source interface {
	// Uint64 returns the next value in the stream.
	Uint64() uint64
	// Float64 returns a uniform value in [0, 1).
	Float64() float64
	// Intn returns a uniform value in [0, n). It panics if n <= 0.
	Intn(n int) int
	// Seed resets the stream to a state derived from seed.
	Seed(seed uint64)
}

// Xorshift is a xorshift64* generator (Marsaglia / Vigna). It passes the
// basic equidistribution checks in this package's tests and is the default
// software source for simulation infrastructure.
type Xorshift struct {
	state uint64
}

// NewXorshift returns a generator seeded with seed.
func NewXorshift(seed uint64) *Xorshift {
	x := &Xorshift{}
	x.Seed(seed)
	return x
}

// Seed resets the generator. A zero seed is remapped to a fixed non-zero
// constant because the all-zero state is a fixed point of xorshift.
func (x *Xorshift) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	// Scramble the seed with splitmix64 so consecutive seeds yield
	// uncorrelated streams.
	x.state = splitmix64(seed)
	if x.state == 0 {
		x.state = 1
	}
}

// Step returns the generator advanced by one value, and that value, without
// touching x. A hot loop can draw through a local copy held in a register
// and store it back once: y := *x; y, u = y.Step(); …; *x = y.
func (x Xorshift) Step() (Xorshift, uint64) {
	s := x.state
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	return Xorshift{s}, s * 0x2545F4914F6CDD1D
}

// Uint64 returns the next 64-bit value.
func (x *Xorshift) Uint64() uint64 {
	var u uint64
	*x, u = x.Step()
	return u
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xorshift) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n).
func (x *Xorshift) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire-style rejection-free multiply-shift is fine here: the bias for
	// n << 2^64 is far below anything the simulations can detect.
	return int(x.Uint64() % uint64(n))
}

// splitmix64 is the finalizer of the SplitMix64 generator, used as a seed
// scrambler.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split returns a new independent source derived from the current state.
// The parent stream advances by one value.
func (x *Xorshift) Split() *Xorshift {
	return NewXorshift(x.Uint64())
}

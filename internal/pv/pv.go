// Package pv models process variation in PCM endurance.
//
// The paper assumes endurance is tested by the manufacturer at page
// granularity and follows a Gaussian distribution with mean 1e8 writes and a
// standard deviation of 11% of the mean (Section 5.1, following Dong et al.
// DAC'11). This package generates per-page endurance maps under that model.
package pv

import (
	"errors"
	"fmt"
	"math"

	"twl/internal/rng"
)

// Model selects how per-page endurance is drawn; Gaussian is the only model.
type Model int

// Gaussian draws endurance i.i.d. from N(mean, sigma), the paper's model.
const Gaussian Model = 0

// String implements fmt.Stringer.
func (m Model) String() string {
	if m == Gaussian {
		return "gaussian"
	}
	return fmt.Sprintf("pv.Model(%d)", int(m))
}

// Config describes an endurance map to generate.
type Config struct {
	Pages int     // number of pages
	Mean  float64 // mean endurance in writes (paper: 1e8)
	Sigma float64 // standard deviation in writes (paper: 0.11 * Mean)
	Model Model
	Seed  uint64
}

// DefaultConfig returns the paper's endurance model for a given page count:
// Gaussian, mean 1e8, sigma 11% of mean.
func DefaultConfig(pages int, seed uint64) Config {
	return Config{
		Pages: pages,
		Mean:  1e8,
		Sigma: 0.11e8,
		Model: Gaussian,
		Seed:  seed,
	}
}

// MinEndurance is the floor applied to every generated endurance value.
// A Gaussian tail can produce non-positive values; real parts are binned and
// discarded below a floor, so we clamp at a small positive count.
const MinEndurance = 1

// Generate produces a per-page endurance map under cfg.
func Generate(cfg Config) ([]uint64, error) {
	if cfg.Pages <= 0 {
		return nil, errors.New("pv: Pages must be positive")
	}
	if cfg.Mean <= 0 {
		return nil, errors.New("pv: Mean must be positive")
	}
	if cfg.Sigma < 0 {
		return nil, errors.New("pv: Sigma must be non-negative")
	}
	if cfg.Model != Gaussian {
		return nil, fmt.Errorf("pv: unknown model %v", cfg.Model)
	}
	g := rng.NewGaussian(rng.NewXorshift(cfg.Seed))
	out := make([]uint64, cfg.Pages)
	for i := range out {
		out[i] = clamp(g.Sample(cfg.Mean, cfg.Sigma))
	}
	return out, nil
}

func clamp(v float64) uint64 {
	if v < MinEndurance {
		return MinEndurance
	}
	return uint64(v)
}

// Summary reports aggregate statistics of an endurance map.
type Summary struct {
	Pages    int
	Min, Max uint64
	Mean     float64
	Sigma    float64
}

// Summarize computes a Summary of the map.
func Summarize(endurance []uint64) Summary {
	s := Summary{Pages: len(endurance)}
	if len(endurance) == 0 {
		return s
	}
	s.Min = endurance[0]
	s.Max = endurance[0]
	sum := 0.0
	for _, e := range endurance {
		if e < s.Min {
			s.Min = e
		}
		if e > s.Max {
			s.Max = e
		}
		sum += float64(e)
	}
	s.Mean = sum / float64(len(endurance))
	varsum := 0.0
	for _, e := range endurance {
		d := float64(e) - s.Mean
		varsum += d * d
	}
	s.Sigma = math.Sqrt(varsum / float64(len(endurance)))
	return s
}

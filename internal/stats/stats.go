// Package stats provides the small statistical helpers the experiments use:
// geometric mean (the paper's Gmean columns), arithmetic mean and sample
// standard deviation.
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: GeoMean of empty slice")
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: GeoMean requires positive values")
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// StdDevSample returns the sample standard deviation of xs with Bessel's
// correction (÷n−1) — the unbiased-variance estimator for error bars over
// replicated measurements. It returns 0 for fewer than two values, where no
// spread estimate exists.
func StdDevSample(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

package stats

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almostEq(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("Mean([1,2,3]) != 2")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 100})
	if err != nil || !almostEq(g, 10) {
		t.Fatalf("GeoMean([1,100]) = %v, %v", g, err)
	}
	g, err = GeoMean([]float64{2, 2, 2})
	if err != nil || !almostEq(g, 2) {
		t.Fatalf("GeoMean([2,2,2]) = %v, %v", g, err)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Fatal("GeoMean(nil) accepted")
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Fatal("GeoMean with zero accepted")
	}
	if _, err := GeoMean([]float64{-1}); err == nil {
		t.Fatal("GeoMean with negative accepted")
	}
}

func TestStdDevSample(t *testing.T) {
	if StdDevSample(nil) != 0 || StdDevSample([]float64{3}) != 0 {
		t.Fatal("StdDevSample of <2 values != 0")
	}
	// Sample stddev of {2,4,4,4,5,5,7,9}: sum of squares 32, ÷7.
	want := math.Sqrt(32.0 / 7)
	if got := StdDevSample([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(got, want) {
		t.Fatalf("StdDevSample = %v, want %v", got, want)
	}
	// Bessel's correction always widens the estimate over the population σ:
	// {1,2,6,9} has mean 4.5 and sum of squares 41, so σ = √(41/4).
	xs := []float64{1, 2, 6, 9}
	if StdDevSample(xs) <= math.Sqrt(41.0/4) {
		t.Fatal("sample stddev not larger than population stddev")
	}
}

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

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 {
		t.Fatal("StdDev(nil) != 0")
	}
	if !almostEq(StdDev([]float64{5, 5, 5}), 0) {
		t.Fatal("constant StdDev != 0")
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is 2.
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(got, 2) {
		t.Fatalf("StdDev = %v, want 2", got)
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
	// Bessel's correction always widens the estimate over the population σ.
	xs := []float64{1, 2, 6, 9}
	if StdDevSample(xs) <= StdDev(xs) {
		t.Fatal("sample stddev not larger than population stddev")
	}
}

package pv

import (
	"math"
	"testing"
)

func TestGenerateGaussianMoments(t *testing.T) {
	cfg := DefaultConfig(100000, 1)
	m, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(m)
	if math.Abs(s.Mean-cfg.Mean)/cfg.Mean > 0.01 {
		t.Fatalf("mean %v, want ~%v", s.Mean, cfg.Mean)
	}
	if math.Abs(s.Sigma-cfg.Sigma)/cfg.Sigma > 0.03 {
		t.Fatalf("sigma %v, want ~%v", s.Sigma, cfg.Sigma)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig(1024, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(1024, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("maps differ at page %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestGenerateSeedChangesMap(t *testing.T) {
	a, _ := Generate(DefaultConfig(1024, 1))
	b, _ := Generate(DefaultConfig(1024, 2))
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("different seeds produced %d/%d identical endurance values", same, len(a))
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{Pages: 0, Mean: 1e8, Sigma: 1e7},
		{Pages: -5, Mean: 1e8, Sigma: 1e7},
		{Pages: 10, Mean: 0, Sigma: 1e7},
		{Pages: 10, Mean: 1e8, Sigma: -1},
		{Pages: 10, Mean: 1e8, Sigma: 1, Model: Model(99)},
	}
	for i, c := range cases {
		if _, err := Generate(c); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestGenerateAllPositive(t *testing.T) {
	// Even with a huge sigma the generator must clamp at MinEndurance.
	cfg := Config{Pages: 50000, Mean: 100, Sigma: 500, Model: Gaussian, Seed: 3}
	m, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range m {
		if e < MinEndurance {
			t.Fatalf("page %d endurance %d < MinEndurance", i, e)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Pages != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]uint64{2, 4, 6})
	if s.Min != 2 || s.Max != 6 {
		t.Fatalf("min/max = %d/%d, want 2/6", s.Min, s.Max)
	}
	if s.Mean != 4 {
		t.Fatalf("mean = %v, want 4", s.Mean)
	}
	want := math.Sqrt(8.0 / 3.0)
	if math.Abs(s.Sigma-want) > 1e-12 {
		t.Fatalf("sigma = %v, want %v", s.Sigma, want)
	}
}

func TestModelString(t *testing.T) {
	if Gaussian.String() != "gaussian" {
		t.Fatal("Model.String mismatch")
	}
	if Model(42).String() == "" {
		t.Fatal("unknown model string empty")
	}
}

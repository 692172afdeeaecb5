package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {99, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v): got %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile: got %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean: got %v", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev: got %v, want 2", got)
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("single-sample stddev should be 0")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Welford
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		w.Add(x)
		xs = append(xs, x)
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-9 {
		t.Errorf("Welford mean %v vs batch %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.StdDev()-StdDev(xs)) > 1e-9 {
		t.Errorf("Welford sd %v vs batch %v", w.StdDev(), StdDev(xs))
	}
	if w.N() != 1000 {
		t.Errorf("N: got %d", w.N())
	}
}

func TestWelfordAbnormal(t *testing.T) {
	var w Welford
	for i := 0; i < 100; i++ {
		w.Add(10 + float64(i%3)) // mean ~11, sd ~0.8
	}
	if w.Abnormal(11, 1, 10) {
		t.Error("11 should not be abnormal")
	}
	if !w.Abnormal(20, 1, 10) {
		t.Error("20 should be abnormal")
	}
	var cold Welford
	cold.Add(1)
	if cold.Abnormal(100, 1, 10) {
		t.Error("cold-start should suppress abnormality")
	}
}

func TestCDF(t *testing.T) {
	cdf := CDF([]float64{1, 2, 2, 4})
	if len(cdf) != 3 {
		t.Fatalf("distinct points: got %d", len(cdf))
	}
	if cdf[0].X != 1 || cdf[0].F != 0.25 {
		t.Errorf("point 0: %+v", cdf[0])
	}
	if cdf[1].X != 2 || cdf[1].F != 0.75 {
		t.Errorf("point 1: %+v", cdf[1])
	}
	if cdf[2].X != 4 || cdf[2].F != 1 {
		t.Errorf("point 2: %+v", cdf[2])
	}
	if CDF(nil) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		cdf := CDF(xs)
		for i := 1; i < len(cdf); i++ {
			if cdf[i].X <= cdf[i-1].X || cdf[i].F <= cdf[i-1].F {
				return false
			}
		}
		return cdf[len(cdf)-1].F == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	bins := Histogram([]float64{0, 1, 2, 3, 9.9, -5, 100}, 0, 10, 10)
	// 0 and clamped -5 land in bin 0; 9.9 and clamped 100 in bin 9.
	if bins[0] != 2 || bins[1] != 1 || bins[2] != 1 || bins[3] != 1 || bins[9] != 2 {
		t.Errorf("histogram: got %v", bins)
	}
}

func TestHistogramClamping(t *testing.T) {
	bins := Histogram([]float64{-1, 11}, 0, 10, 5)
	if bins[0] != 1 || bins[4] != 1 {
		t.Errorf("clamping: got %v", bins)
	}
	if Histogram(nil, 0, 10, 0) != nil {
		t.Error("zero bins should be nil")
	}
	if Histogram(nil, 10, 0, 5) != nil {
		t.Error("inverted range should be nil")
	}
}

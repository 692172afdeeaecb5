package stats

import (
	"math/rand"
	"slices"
	"testing"
)

// percentileRunsCases are the percentiles PercentileRuns is checked at:
// both ends, the middle, and the victim threshold's neighbourhood, where
// the walk comes in from the top.
var percentileRunsCases = []float64{-1, 0, 1, 50, 99, 99.9, 99.99, 100}

// TestPercentileRunsMatchesMerged: over random sets of ascending runs —
// empty runs among them, values from a small range so that equal values
// sit in many runs, one run alone, and more runs than the heap keeps on
// the stack — PercentileRuns is PercentileSorted over the runs laid end to
// end and sorted.
func TestPercentileRunsMatchesMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 600; trial++ {
		nRuns := 1 + rng.Intn(12)
		switch trial % 6 {
		case 0:
			nRuns = 1
		case 1:
			nRuns = len(runFronts{}) + 1 + rng.Intn(40)
		}
		span := 1 + rng.Intn(400) // values in [0, span): duplicates when small
		runs := make([][]float64, nRuns)
		var flat []float64
		for i := range runs {
			n := rng.Intn(60)
			if rng.Intn(5) == 0 {
				n = 0
			}
			run := make([]float64, n)
			for j := range run {
				run[j] = float64(rng.Intn(span) - span/4)
			}
			slices.Sort(run)
			runs[i] = run
			flat = append(flat, run...)
		}
		slices.Sort(flat)
		for _, p := range percentileRunsCases {
			if got, want := PercentileRuns(runs, p), PercentileSorted(flat, p); got != want {
				t.Fatalf("trial %d, %d runs, %d values: p%v = %v, merged gives %v", trial, nRuns, len(flat), p, got, want)
			}
		}
	}
	if got := PercentileRuns(nil, 99); got != 0 {
		t.Errorf("no runs: p99 = %v, want 0", got)
	}
	if got := PercentileRuns([][]float64{nil, {}}, 50); got != 0 {
		t.Errorf("empty runs: p50 = %v, want 0", got)
	}
}

// TestPercentileRunsEqualValues: a value that fills several runs, and the
// rank landing on either side of it.
func TestPercentileRunsEqualValues(t *testing.T) {
	runs := [][]float64{{1, 5, 5, 5}, {5, 5}, {}, {5, 9}, {0, 5, 5, 5, 5}}
	var flat []float64
	for _, r := range runs {
		flat = append(flat, r...)
	}
	slices.Sort(flat)
	for p := 0.0; p <= 100; p += 0.5 {
		if got, want := PercentileRuns(runs, p), PercentileSorted(flat, p); got != want {
			t.Fatalf("p%v = %v, merged gives %v", p, got, want)
		}
	}
}

// TestPercentileRunsAllocs: the selection allocates nothing, at the
// percentiles above and with as many runs as the heap keeps on the stack.
func TestPercentileRunsAllocs(t *testing.T) {
	runs := make([][]float64, len(runFronts{}))
	for i := range runs {
		runs[i] = []float64{float64(i), float64(2 * i), float64(3 * i)}
	}
	for _, p := range percentileRunsCases {
		if a := testing.AllocsPerRun(50, func() { PercentileRuns(runs, p) }); a != 0 {
			t.Errorf("p%v: %v allocations per selection, want 0", p, a)
		}
	}
}

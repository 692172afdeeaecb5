package stats

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSortedBagAgainstSortedSlice drives a bag and a plain sorted slice
// through the same sliding-window history — sorted runs added at the back,
// the oldest run removed, sizes from empty to several blocks, many
// duplicates — and holds every rank and percentile equal.
func TestSortedBagAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var bag SortedBag
	var runs [][]float64
	var flat []float64
	check := func(step int) {
		t.Helper()
		if bag.Len() != len(flat) {
			t.Fatalf("step %d: bag holds %d values, want %d", step, bag.Len(), len(flat))
		}
		for i, want := range flat {
			if got := bag.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %v, want %v", step, i, got, want)
			}
		}
		for _, p := range []float64{-1, 0, 0.1, 50, 90, 99, 99.9, 100, 101} {
			if got, want := bag.Percentile(p), PercentileSorted(flat, p); got != want {
				t.Fatalf("step %d: p%v = %v, want %v", step, p, got, want)
			}
		}
	}
	check(0)
	for step := 1; step <= 400; step++ {
		// Windows of up to 12 runs; run sizes from none to two blocks'
		// worth, values from a small range so that duplicates span blocks.
		if len(runs) > 0 && (len(runs) >= 12 || rng.Intn(4) == 0) {
			bag.Remove(runs[0])
			for _, x := range runs[0] {
				i := sort.SearchFloat64s(flat, x)
				flat = append(flat[:i], flat[i+1:]...)
			}
			runs = runs[1:]
		} else {
			run := make([]float64, rng.Intn(2*bagBlock))
			for i := range run {
				run[i] = float64(rng.Intn(300))
			}
			sort.Float64s(run)
			bag.Add(run)
			runs = append(runs, run)
			flat = append(flat, run...)
			sort.Float64s(flat)
		}
		check(step)
	}
	bag.Reset()
	flat = flat[:0]
	check(-1)
	bag.Add([]float64{3, 3, 7})
	if bag.Len() != 3 || bag.At(0) != 3 || bag.At(2) != 7 {
		t.Fatalf("bag after Reset and Add: %d values", bag.Len())
	}
}

// TestSortedBagSteadyStateAllocs: a bag whose size has stopped growing
// reuses the blocks it empties.
func TestSortedBagSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var bag SortedBag
	var runs [][]float64
	for i := 0; i < 40; i++ {
		run := make([]float64, 150)
		for k := range run {
			run[k] = float64(rng.Intn(100000))
		}
		sort.Float64s(run)
		runs = append(runs, run)
	}
	slide := func(i int) {
		bag.Add(runs[i%len(runs)])
		if i >= 20 {
			bag.Remove(runs[(i-20)%len(runs)])
		}
	}
	i := 0
	for ; i < 200; i++ {
		slide(i)
	}
	if a := testing.AllocsPerRun(100, func() { slide(i); i++ }); a > 0.1 {
		t.Fatalf("a steady bag allocates %.2f objects per slide", a)
	}
}

func TestSortedBagOf(t *testing.T) {
	if b := SortedBagOf(nil); b.Len() != 0 || b.Percentile(50) != 0 {
		t.Fatalf("empty bag: %d values, p50 %v", b.Len(), b.Percentile(50))
	}
	xs := []float64{1, 2, 2, 5, 9}
	b := SortedBagOf(xs)
	for _, p := range []float64{0, 20, 50, 99, 100} {
		if got, want := b.Percentile(p), PercentileSorted(xs, p); got != want {
			t.Fatalf("p%v = %v, want %v", p, got, want)
		}
	}
}

package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestMomentsMergeExact: merging per-chunk summaries is bit-identical to
// one sequential scan, for any chunking and any merge order — the property
// the streaming index's equivalence contract rests on.
func TestMomentsMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]int64, 10_000)
	for i := range samples {
		// Mix of magnitudes, including corrupt-timestamp-sized deltas whose
		// squares exceed int64.
		switch i % 5 {
		case 0:
			samples[i] = rng.Int63n(1000)
		case 1:
			samples[i] = -rng.Int63n(1000)
		case 2:
			samples[i] = rng.Int63n(1 << 40)
		default:
			samples[i] = rng.Int63n(1 << 32)
		}
	}
	var seq Moments
	for _, d := range samples {
		seq.Add(d)
	}

	for _, chunks := range []int{1, 2, 7, 64, 1000} {
		parts := make([]Moments, chunks)
		for i, d := range samples {
			parts[i%chunks].Add(d)
		}
		// Merge in a scrambled order: addition is commutative.
		order := rng.Perm(chunks)
		var merged Moments
		for _, ci := range order {
			merged.Merge(parts[ci])
		}
		if merged != seq {
			t.Fatalf("chunks=%d: merged %+v != sequential %+v", chunks, merged, seq)
		}
		if merged.Mean() != seq.Mean() || merged.StdDev() != seq.StdDev() {
			t.Fatalf("chunks=%d: query-time stats differ", chunks)
		}
	}
}

// TestMomentsMatchesWelford: on ordinary data the exact moments agree with
// the streaming Welford accumulator to floating-point tolerance.
func TestMomentsMatchesWelford(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var m Moments
	var w Welford
	for i := 0; i < 5000; i++ {
		d := rng.Int63n(1_000_000)
		m.Add(d)
		w.Add(float64(d))
	}
	if m.N() != 5000 {
		t.Fatalf("n = %d", m.N())
	}
	if relDiff(m.Mean(), w.Mean()) > 1e-12 {
		t.Fatalf("mean: moments %v, welford %v", m.Mean(), w.Mean())
	}
	if relDiff(m.StdDev(), w.StdDev()) > 1e-9 {
		t.Fatalf("stddev: moments %v, welford %v", m.StdDev(), w.StdDev())
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	s := math.Max(math.Abs(a), math.Abs(b))
	return d / s
}

// TestMomentsAbnormal mirrors Welford.Abnormal's decision shape.
func TestMomentsAbnormal(t *testing.T) {
	var m Moments
	if m.Abnormal(100, 3, 1) {
		t.Error("empty distribution flagged abnormal")
	}
	for i := 0; i < 10; i++ {
		m.Add(50)
	}
	if m.Abnormal(1000, 3, 20) {
		t.Error("below minSamples must never flag")
	}
	// Zero variance: anything strictly above the mean is abnormal.
	if !m.Abnormal(51, 3, 10) || m.Abnormal(50, 3, 10) {
		t.Error("degenerate-distribution decision shape wrong")
	}
	var v Moments
	for i := int64(0); i < 100; i++ {
		v.Add(i % 10)
	}
	mean, sd := v.Mean(), v.StdDev()
	if v.Abnormal(mean+2*sd, 3, 10) {
		t.Error("2 sigma flagged at k=3")
	}
	if !v.Abnormal(mean+4*sd, 3, 10) {
		t.Error("4 sigma not flagged at k=3")
	}
}

// TestMomentsHugeSquares: squares past int64 range accumulate exactly in
// the 128-bit sum instead of overflowing.
func TestMomentsHugeSquares(t *testing.T) {
	var a, b Moments
	const big = int64(1) << 62 // square is 2^124: far past 64 bits
	a.Add(big)
	a.Add(-big)
	b.Add(-big)
	b.Add(big)
	if a != b {
		t.Fatalf("sign/order changed the accumulation: %+v vs %+v", a, b)
	}
	if a.sum != 0 || a.sqHi == 0 {
		t.Fatalf("128-bit square lost: %+v", a)
	}
	// n=2, sum=0 → variance is sq/2; must be finite and huge.
	if sd := a.StdDev(); math.IsNaN(sd) || sd <= float64(big)/2 {
		t.Fatalf("stddev degenerate: %v", sd)
	}
}

// TestMomentsUnmerge: taking a summary back out restores the one it was
// merged into exactly, across the 64-bit carry of the square sum and for
// negative samples.
func TestMomentsUnmerge(t *testing.T) {
	var base, other Moments
	for _, d := range []int64{5, -7, 1 << 40, -(1 << 41), 3, 1<<62 - 1} {
		base.Add(d)
	}
	for _, d := range []int64{1 << 62, -(1 << 62), 11, 0, -1} {
		other.Add(d)
	}
	merged := base
	merged.Merge(other)
	if merged == base {
		t.Fatal("merge changed nothing")
	}
	merged.Unmerge(other)
	if merged != base {
		t.Fatalf("Merge then Unmerge = %+v, want %+v", merged, base)
	}
	merged.Unmerge(base)
	if merged != (Moments{}) {
		t.Fatalf("unmerging everything leaves %+v", merged)
	}
}

// Package stats provides the small statistical toolkit the diagnosis
// pipeline and the evaluation harness need: percentiles, running
// mean/stddev (for the §4.1 "one standard deviation beyond recent history"
// abnormality test), empirical CDFs, and histograms.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank on a sorted copy. It returns 0 for an empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile over an already-sorted slice, allocating
// nothing. Useful when many percentiles are taken from one dataset.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[percentileIndex(len(sorted), p)]
}

// percentileIndex is the nearest-rank position of the p-th percentile among
// n > 0 ascending samples.
func percentileIndex(n int, p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 100 {
		return n - 1
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return rank - 1
}

// PercentileRuns is PercentileSorted over ascending runs merged into one
// sorted slice — the same value, found without merging them. It walks in
// from the end of the merged order nearer the rank, through a heap of the
// runs keyed by their next value, and takes from the leading run at once
// every value that comes no later than the runner-up's next one. So it
// costs a heap of the runs plus a heap step per change of leading run, at
// most min(rank, n−rank) of them; one run costs one index. It allocates
// nothing for up to len(runFronts) non-empty runs.
func PercentileRuns(runs [][]float64, p float64) float64 {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	if n == 0 {
		return 0
	}
	// The value is the k-th in walk order: up from the smallest, or down
	// from the largest with every key negated.
	k, sign := percentileIndex(n, p)+1, 1.0
	if n-k+1 < k {
		k, sign = n-k+1, -1
	}
	down := sign < 0
	var fronts runFronts
	h := fronts[:0]
	for _, r := range runs {
		if len(r) > 0 {
			h = append(h, runFront{key: sign * nth(r, 0, down), rest: r})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for {
		f := &h[0]
		if len(h) == 1 {
			return nth(f.rest, k-1, down)
		}
		next := h[1].key
		if len(h) > 2 {
			next = min(next, h[2].key)
		}
		j := 1
		for j < k && j < len(f.rest) && sign*nth(f.rest, j, down) <= next {
			j++
		}
		if j == k {
			return nth(f.rest, k-1, down)
		}
		k -= j
		switch {
		case j == len(f.rest):
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		case down:
			f.rest = f.rest[:len(f.rest)-j]
		default:
			f.rest = f.rest[j:]
		}
		h[0].key = sign * nth(h[0].rest, 0, down)
		siftDown(h, 0)
	}
}

// runFronts is the heap PercentileRuns keeps on the stack.
type runFronts [128]runFront

// runFront is one run in PercentileRuns' heap: the values not yet walked
// past, and the next of them as the key.
type runFront struct {
	key  float64
	rest []float64
}

// nth is the i-th value of rest in walk order: from the front, or from the
// back when walking down.
func nth(rest []float64, i int, down bool) float64 {
	if down {
		return rest[len(rest)-1-i]
	}
	return rest[i]
}

// siftDown restores the min-heap order of h below i.
func siftDown(h []runFront, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].key < h[c].key {
			c++
		}
		if h[i].key <= h[c].key {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation, or 0 for fewer than two
// samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Welford accumulates a running mean and variance without storing samples.
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n))
}

// Abnormal reports whether x lies more than k standard deviations above the
// running mean. This is the §4.1 abnormality test (k = 1 in the paper).
// With fewer than minSamples observations nothing is abnormal, preventing
// cold-start false positives.
func (w *Welford) Abnormal(x, k float64, minSamples int64) bool {
	if w.n < minSamples {
		return false
	}
	sd := w.StdDev()
	if sd == 0 {
		return x > w.mean
	}
	return x > w.mean+k*sd
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	F float64 // cumulative fraction in (0, 1]
}

// CDF computes the empirical CDF of xs. The result has one point per
// distinct value, in increasing order.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var out []CDFPoint
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		out = append(out, CDFPoint{X: sorted[i], F: float64(i+1) / n})
	}
	return out
}

// Histogram counts xs into nbins equal-width bins over [lo, hi). Values
// outside the range are clamped into the edge bins.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins <= 0 || hi <= lo {
		return nil
	}
	bins := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		bins[i]++
	}
	return bins
}

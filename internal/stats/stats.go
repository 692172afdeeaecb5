// Package stats provides the small statistical toolkit the diagnosis
// pipeline and the evaluation harness need: percentiles, running
// mean/stddev histories (for the §4.1 "one standard deviation beyond recent
// history" abnormality test), empirical CDFs, and rank curves.
package stats

import (
	"fmt"
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

// History is a bounded sliding window of samples supporting the
// "recent history" abnormality test of §4.1, where old behaviour should age
// out rather than dominate the baseline forever.
type History struct {
	buf  []float64
	next int
	full bool
}

// NewHistory returns a window holding up to n samples. n must be positive.
func NewHistory(n int) *History {
	if n <= 0 {
		panic("stats: history size must be positive")
	}
	return &History{buf: make([]float64, n)}
}

// Add appends a sample, evicting the oldest when full.
func (h *History) Add(x float64) {
	h.buf[h.next] = x
	h.next++
	if h.next == len(h.buf) {
		h.next = 0
		h.full = true
	}
}

// Len returns the number of stored samples.
func (h *History) Len() int {
	if h.full {
		return len(h.buf)
	}
	return h.next
}

// Samples returns a copy of the stored samples in arbitrary order.
func (h *History) Samples() []float64 {
	out := make([]float64, h.Len())
	copy(out, h.buf[:h.Len()])
	return out
}

// MeanStdDev returns the mean and population stddev of the window.
func (h *History) MeanStdDev() (mean, sd float64) {
	n := h.Len()
	if n == 0 {
		return 0, 0
	}
	xs := h.buf[:n]
	return Mean(xs), StdDev(xs)
}

// Abnormal reports whether x exceeds the window mean by more than k
// standard deviations. Fewer than minSamples samples → never abnormal.
func (h *History) Abnormal(x, k float64, minSamples int) bool {
	if h.Len() < minSamples {
		return false
	}
	mean, sd := h.MeanStdDev()
	if sd == 0 {
		return x > mean
	}
	return x > mean+k*sd
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

// CDFAt evaluates an empirical CDF (as returned by CDF) at x.
func CDFAt(cdf []CDFPoint, x float64) float64 {
	lo, hi := 0, len(cdf)
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid].X <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return cdf[lo-1].F
}

// RankCurve summarizes a list of per-victim ranks into the paper's
// Figure 11/12 form: for each cumulative fraction of victims (sorted by
// rank), the rank needed to cover them. Entry i of the result is the rank
// of the (i+1)-th best-ranked victim.
func RankCurve(ranks []int) []int {
	out := make([]int, len(ranks))
	copy(out, ranks)
	sort.Ints(out)
	return out
}

// FractionAtRank returns the fraction of victims whose rank is <= r.
func FractionAtRank(ranks []int, r int) float64 {
	if len(ranks) == 0 {
		return 0
	}
	n := 0
	for _, x := range ranks {
		if x <= r && x > 0 {
			n++
		}
	}
	return float64(n) / float64(len(ranks))
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

// FormatPct renders a fraction as a percentage string like "89.7%".
func FormatPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

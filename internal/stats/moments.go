package stats

import (
	"math"
	"math/bits"
)

// Moments accumulates integer samples as exact raw moments: count, sum,
// and a 128-bit sum of squares. Unlike Welford, whose running mean makes
// the result depend on fold order, integer moment accumulation is
// associative and commutative (128-bit modular addition), so merging
// per-epoch partial summaries yields bit-identical statistics to a single
// sequential scan in any order — the property the incremental streaming
// index's equivalence contract rests on. Queue delays are nanosecond
// int64s, so no precision is lost going in; Mean/StdDev convert to
// float64 only at query time, identically on every path.
type Moments struct {
	n   int64
	sum int64
	// 128-bit sum of d*d, split hi/lo. Each square is computed exactly
	// via bits.Mul64, so even absurd corrupt-timestamp deltas accumulate
	// deterministically instead of overflowing int64 mid-sum.
	sqHi uint64
	sqLo uint64
}

// Add folds one integer sample in.
func (m *Moments) Add(d int64) {
	m.n++
	m.sum += d
	a := uint64(d)
	if d < 0 {
		a = uint64(-d)
	}
	hi, lo := bits.Mul64(a, a)
	var carry uint64
	m.sqLo, carry = bits.Add64(m.sqLo, lo, 0)
	m.sqHi, _ = bits.Add64(m.sqHi, hi, carry)
}

// Merge folds another summary in. Merge(a); Merge(b) equals adding every
// sample of a then every sample of b, exactly.
func (m *Moments) Merge(o Moments) {
	m.n += o.n
	m.sum += o.sum
	var carry uint64
	m.sqLo, carry = bits.Add64(m.sqLo, o.sqLo, 0)
	m.sqHi, _ = bits.Add64(m.sqHi, o.sqHi, carry)
}

// N returns the sample count.
func (m *Moments) N() int64 { return m.n }

// Mean returns the sample mean (0 when empty).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.sum) / float64(m.n)
}

// StdDev returns the population standard deviation, matching
// Welford.StdDev's semantics (0 when n < 2).
func (m *Moments) StdDev() float64 {
	if m.n < 2 {
		return 0
	}
	sq := float64(m.sqHi)*0x1p64 + float64(m.sqLo)
	mean := float64(m.sum) / float64(m.n)
	v := (sq - float64(m.sum)*mean) / float64(m.n)
	if v < 0 {
		v = 0 // cancellation guard; exact moments can round below zero
	}
	return math.Sqrt(v)
}

// Abnormal reports whether x lies more than k standard deviations above
// the mean, with Welford.Abnormal's exact decision shape: below
// minSamples nothing is abnormal, and a degenerate (zero-variance)
// distribution flags anything strictly above the mean.
func (m *Moments) Abnormal(x float64, k float64, minSamples int64) bool {
	if m.n < minSamples {
		return false
	}
	sd := m.StdDev()
	if sd == 0 {
		return x > m.Mean()
	}
	return x > m.Mean()+k*sd
}

// Unmerge takes a summary back out: after Merge(o), Unmerge(o) restores m
// exactly (the moments are integers under 128-bit modular arithmetic), so
// a sliding window can subtract the segment that left instead of
// re-merging the ones that stayed.
func (m *Moments) Unmerge(o Moments) {
	m.n -= o.n
	m.sum -= o.sum
	var borrow uint64
	m.sqLo, borrow = bits.Sub64(m.sqLo, o.sqLo, 0)
	m.sqHi, _ = bits.Sub64(m.sqHi, o.sqHi, borrow)
}

package resilience

// Ring is a slice-backed circular buffer with an optional hard capacity.
// It is the bounded ingest stage's storage: index access is O(1), front
// drops are O(1) (with evicted slots zeroed so record payloads are
// released to the GC), and in-order inserts for late records shift only
// the tail they displace. Capacity 0 means unbounded — the ring grows like
// an ordinary slice, which is the pre-resilience behaviour.
//
// A Ring is not safe for concurrent use; its owner (the online monitor)
// is single-goroutine by contract.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
	// capLimit is the hard bound (0 = unbounded).
	capLimit int
}

// NewRing creates a ring bounded at capacity records (0 = unbounded).
// Storage is allocated on demand, so a large bound costs nothing until
// the backlog actually builds.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Ring[T]{capLimit: capacity}
}

// Len returns the number of buffered items.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the hard capacity (0 = unbounded).
func (r *Ring[T]) Cap() int { return r.capLimit }

// Full reports whether a bounded ring has no room left.
func (r *Ring[T]) Full() bool { return r.capLimit > 0 && r.n >= r.capLimit }

// Occupancy returns the fill fraction of a bounded ring (always 0 when
// unbounded) — the watermark signal backpressure keys off.
func (r *Ring[T]) Occupancy() float64 {
	if r.capLimit <= 0 {
		return 0
	}
	return float64(r.n) / float64(r.capLimit)
}

// At returns the i-th buffered item (0 = oldest). i must be in [0, Len()).
func (r *Ring[T]) At(i int) T {
	return r.buf[r.idx(i)]
}

func (r *Ring[T]) idx(i int) int {
	p := r.head + i
	if p >= len(r.buf) {
		p -= len(r.buf)
	}
	return p
}

// grow doubles the backing store until it holds at least need items
// (respecting the capacity bound) and linearizes the contents.
func (r *Ring[T]) grow(need int) {
	newCap := max(len(r.buf)*2, 16)
	for newCap < need {
		newCap *= 2
	}
	if r.capLimit > 0 && newCap > r.capLimit {
		newCap = r.capLimit
	}
	nb := make([]T, newCap)
	a, b := r.Spans(0, r.n)
	copy(nb[copy(nb, a):], b)
	r.buf, r.head = nb, 0
}

// Append adds v at the back. It returns false — and buffers nothing —
// when a bounded ring is full; the caller applies its shed policy.
func (r *Ring[T]) Append(v T) bool {
	if r.Full() {
		return false
	}
	if r.n == len(r.buf) {
		r.grow(r.n + 1)
	}
	r.buf[r.idx(r.n)] = v
	r.n++
	return true
}

// AppendRun adds every item of vs at the back, in order, with one copy per
// contiguous stretch of storage it lands in. It returns false — and
// buffers nothing — when a bounded ring has no room for all of them.
func (r *Ring[T]) AppendRun(vs []T) bool {
	if r.capLimit > 0 && r.n+len(vs) > r.capLimit {
		return false
	}
	if len(vs) == 0 {
		return true
	}
	if r.n+len(vs) > len(r.buf) {
		r.grow(r.n + len(vs))
	}
	// The free slots run from the tail to the head, wrapping at most once.
	k := copy(r.buf[r.idx(r.n):], vs)
	copy(r.buf, vs[k:])
	r.n += len(vs)
	return true
}

// Insert places v before position i (0 = front, Len() = back), shifting
// the tail one slot. It returns false when a bounded ring is full. Late
// records are rare, so the O(Len-i) shift is off the hot path.
func (r *Ring[T]) Insert(i int, v T) bool {
	if r.Full() {
		return false
	}
	if r.n == len(r.buf) {
		r.grow(r.n + 1)
	}
	r.n++
	for j := r.n - 1; j > i; j-- {
		r.buf[r.idx(j)] = r.buf[r.idx(j-1)]
	}
	r.buf[r.idx(i)] = v
	return true
}

// DropFront discards the k oldest items, zeroing their slots so any
// payloads they referenced (record IPID/tuple slices) are released.
func (r *Ring[T]) DropFront(k int) {
	if k > r.n {
		k = r.n
	}
	a, b := r.Spans(0, k)
	clear(a)
	clear(b)
	r.head = r.idx(k)
	r.n -= k
}

// Search returns the smallest index i in [0, Len()) for which pred(item i)
// is true, or Len() when none is — sort.Search over the ring's logical
// order. The contents must be partitioned with respect to pred (false...
// then true...), which time-ordered records are.
func (r *Ring[T]) Search(pred func(T) bool) int {
	lo, hi := 0, r.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(r.At(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Spans returns items [from, to) in place, as the (at most two) contiguous
// runs of the ring's own storage they occupy, in logical order; b is empty
// unless the range wraps. Nothing is copied: the slices alias the ring and
// are valid only until its next Append, AppendRun, Insert or DropFront.
func (r *Ring[T]) Spans(from, to int) (a, b []T) {
	if from >= to {
		return nil, nil
	}
	lo, hi := r.idx(from), r.idx(to-1)+1
	if lo < hi {
		return r.buf[lo:hi], nil
	}
	return r.buf[lo:], r.buf[:hi]
}

package tracestore

import (
	"sort"

	"microscope/internal/simtime"
)

// QueuingPeriod describes the §4.1 queuing period for a packet arriving at
// a component at End: the interval from when the queue last started
// building from empty (Start) to the packet's arrival.
type QueuingPeriod struct {
	Comp  CompID
	Start simtime.Time
	End   simtime.Time
	// ArrivalFirst..ArrivalLast (inclusive) are the arrivals at Comp
	// during the period — PreSet(p) plus the victim itself — as
	// stream-absolute arrival indices: Store.PeriodArrivals resolves them.
	// They stay valid while the arrivals stay retained, however many rows
	// a window store has since dropped from the front.
	ArrivalFirst, ArrivalLast int
	// NIn is n_i(T): packets arriving during the period.
	NIn int
	// NProc is n_p(T): packets dequeued during the period.
	NProc int
}

// T returns the period length.
func (qp *QueuingPeriod) T() simtime.Duration { return qp.End.Sub(qp.Start) }

// PeriodArrivals returns the arrivals of a queuing period computed over
// this store, in arrival order. The slice is shared and must not be
// mutated.
func (s *Store) PeriodArrivals(qp *QueuingPeriod) []Arrival {
	v := s.ViewID(qp.Comp)
	if v == nil {
		return nil
	}
	lo, hi := qp.ArrivalFirst-v.firstArrival, qp.ArrivalLast+1-v.firstArrival
	if lo < 0 {
		lo = 0
	}
	if hi > len(v.Arrivals) {
		hi = len(v.Arrivals)
	}
	if lo >= hi {
		return nil
	}
	return v.Arrivals[lo:hi]
}

// periodIndex caches per-component arrays for O(log n) period queries.
type periodIndex struct {
	arrivalTimes []simtime.Time
	drainTimes   []simtime.Time // read events that left the queue empty
	readTimes    []simtime.Time
	readCum      []int // readCum[i] = packets read in events [0, i)
}

// warmPeriodIndexes builds every view's period index out of the store's
// own times/cums slabs, so a recycled store refills them in place.
func (s *Store) warmPeriodIndexes() {
	nTimes, nCums := 0, 0
	for _, v := range s.views {
		nt, nc := periodIndexSize(v)
		nTimes += nt
		nCums += nc
	}
	s.times = resize(s.times, nTimes)
	s.cums = resize(s.cums, nCums)
	times, cums := s.times, s.cums
	for _, v := range s.views {
		nt, nc := periodIndexSize(v)
		v.pidx.fill(v, times[:nt], cums[:nc])
		times, cums = times[nt:], cums[nc:]
	}
}

// periodIndexSize is how many times and cumulative counts v's period
// index holds.
func periodIndexSize(v *CompView) (times, cums int) {
	drained := 0
	for i := range v.Reads {
		if v.Reads[i].Drained {
			drained++
		}
	}
	return len(v.Arrivals) + len(v.Reads) + drained, len(v.Reads) + 1
}

// fill builds the index over v in the given storage, which must have
// exactly periodIndexSize(v) elements.
func (pi *periodIndex) fill(v *CompView, times []simtime.Time, cums []int) {
	na, nr := len(v.Arrivals), len(v.Reads)
	pi.arrivalTimes, times = times[:na:na], times[na:]
	pi.readTimes, times = times[:nr:nr], times[nr:]
	pi.drainTimes = nil
	if len(times) > 0 {
		pi.drainTimes = times[:0]
	}
	pi.readCum = cums
	for i := range v.Arrivals {
		pi.arrivalTimes[i] = v.Arrivals[i].At
	}
	pi.readCum[0] = 0
	for i := range v.Reads {
		pi.readTimes[i] = v.Reads[i].At
		pi.readCum[i+1] = pi.readCum[i] + v.Reads[i].N
		if v.Reads[i].Drained {
			pi.drainTimes = append(pi.drainTimes, v.Reads[i].At)
		}
	}
}

func searchTimes(ts []simtime.Time, t simtime.Time) int {
	// First index with ts[i] > t.
	return sort.Search(len(ts), func(i int) bool { return ts[i] > t })
}

// QueuingPeriodAt computes the queuing period at comp for a packet that
// arrived at time t (string-keyed wrapper of QueuingPeriodAtID).
func (s *Store) QueuingPeriodAt(comp string, t simtime.Time) *QueuingPeriod {
	return s.QueuingPeriodAtID(s.CompIDOf(comp), t)
}

// QueuingPeriodAtID computes the queuing period at an interned component
// for a packet that arrived at time t. It returns nil when the component is
// unknown or has no arrivals at or before t.
func (s *Store) QueuingPeriodAtID(comp CompID, t simtime.Time) *QueuingPeriod {
	v := s.ViewID(comp)
	if v == nil || len(v.Arrivals) == 0 {
		return nil
	}
	pi := &v.pidx

	// Last drain strictly before t; the period begins with the first
	// arrival after it.
	var lastDrain simtime.Time = -1
	if i := searchTimes(pi.drainTimes, t-1); i > 0 {
		lastDrain = pi.drainTimes[i-1]
	}
	first := searchTimes(pi.arrivalTimes, lastDrain) // first arrival with At > lastDrain
	last := searchTimes(pi.arrivalTimes, t) - 1      // last arrival with At <= t
	if last < first {
		return nil
	}
	start := pi.arrivalTimes[first]

	// Packets dequeued during [start, t].
	lo := sort.Search(len(pi.readTimes), func(i int) bool { return pi.readTimes[i] >= start })
	hi := searchTimes(pi.readTimes, t)
	nProc := pi.readCum[hi] - pi.readCum[lo]

	return &QueuingPeriod{
		Comp:         comp,
		Start:        start,
		End:          t,
		ArrivalFirst: v.firstArrival + first,
		ArrivalLast:  v.firstArrival + last,
		NIn:          last - first + 1,
		NProc:        nProc,
	}
}

// QueueLenAt estimates the queue length at comp at time t from the record
// stream (arrivals minus dequeues since the last drain). This is exactly
// n_i - n_p of the queuing period ending at t.
func (s *Store) QueueLenAt(comp string, t simtime.Time) int {
	return s.QueueLenAtID(s.CompIDOf(comp), t)
}

// QueueLenAtID is QueueLenAt for an interned component.
func (s *Store) QueueLenAtID(comp CompID, t simtime.Time) int {
	qp := s.QueuingPeriodAtID(comp, t)
	if qp == nil {
		return 0
	}
	n := qp.NIn - qp.NProc
	if n < 0 {
		return 0
	}
	return n
}

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

// periodIndex is what a queuing-period query cannot read off the rows by
// binary search: the times of the reads that left the queue empty, without
// which finding the last drain before t would mean walking back through a
// busy period.
type periodIndex struct {
	drainTimes []simtime.Time
}

// warmPeriodIndexes fills every view's drain times into the store's drains
// slab, so a recycled store refills it in place.
func (s *Store) warmPeriodIndexes() {
	n := 0
	for _, v := range s.views {
		for i := range v.Reads {
			if v.Reads[i].Drained {
				n++
			}
		}
	}
	s.drains = resize(s.drains, n)
	drains := s.drains[:0]
	for _, v := range s.views {
		from := len(drains)
		for i := range v.Reads {
			if v.Reads[i].Drained {
				drains = append(drains, v.Reads[i].At)
			}
		}
		v.pidx.drainTimes = drains[from:len(drains):len(drains)]
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
	// Last drain strictly before t; the period begins with the first
	// arrival after it.
	var lastDrain simtime.Time = -1
	if i := searchTimes(v.pidx.drainTimes, t-1); i > 0 {
		lastDrain = v.pidx.drainTimes[i-1]
	}
	return v.periodAfter(lastDrain, t)
}

// periodAfter is the queuing period at v for a packet arriving at t that
// began with the first arrival after anchor, or nil when no arrival lies
// in (anchor, t]. Its arrivals and reads are binary-searched in the rows.
func (v *CompView) periodAfter(anchor, t simtime.Time) *QueuingPeriod {
	arr, reads := v.Arrivals, v.Reads
	first := sort.Search(len(arr), func(i int) bool { return arr[i].At > anchor })
	last := sort.Search(len(arr), func(i int) bool { return arr[i].At > t }) - 1
	if last < first {
		return nil
	}
	start := arr[first].At
	// Packets dequeued during [start, t].
	lo := sort.Search(len(reads), func(i int) bool { return reads[i].At >= start })
	hi := sort.Search(len(reads), func(i int) bool { return reads[i].At > t })
	return &QueuingPeriod{
		Comp:         v.ID,
		Start:        start,
		End:          t,
		ArrivalFirst: v.firstArrival + first,
		ArrivalLast:  v.firstArrival + last,
		NIn:          last - first + 1,
		NProc:        v.readBefore(hi) - v.readBefore(lo),
	}
}

// readBefore is how many packets the reads before Reads[i] dequeued, for
// 0 ≤ i ≤ len(Reads), counted from where ReadEvent.FirstEntry counts: only
// differences are meaningful.
func (v *CompView) readBefore(i int) int {
	if i < len(v.Reads) {
		return v.Reads[i].FirstEntry
	}
	if i == 0 {
		return 0
	}
	r := &v.Reads[i-1]
	return r.FirstEntry + r.N
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

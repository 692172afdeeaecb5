package tracestore

import (
	"sort"

	"microscope/internal/simtime"
)

// The paper's §7 extension: when an NF's queue is rarely empty (sustained
// moderate overload), the zero-length queuing-period boundary degenerates —
// one queuing period spans the whole run and every diagnosis drags in the
// entire history. The fix the paper sketches but leaves unevaluated is a
// non-zero threshold: a queuing period starts when the queue last grew
// from at most K packets. This file implements and the ablation experiment
// evaluates it.

// qlenTimeline is the per-component reconstructed queue-length walk: one
// entry per queue event (arrival or batch read), in time order.
type qlenTimeline struct {
	times []simtime.Time
	qlen  []int // queue length after the event
	// arrivalIdx[i] is the index into Arrivals if event i is an arrival,
	// else -1.
	arrivalIdx []int
	// lastLE caches, per threshold K, for each event index the most
	// recent event index j <= i with qlen[j] <= K (or -1).
	lastLE map[int][]int
}

func (s *Store) timelineOf(v *CompView) *qlenTimeline {
	if v.tl != nil {
		return v.tl
	}
	tl := &qlenTimeline{lastLE: make(map[int][]int)}
	// Merge arrivals and read events.
	type ev struct {
		at  simtime.Time
		dq  int // queue delta
		arr int // arrival index or -1
		ord int
	}
	evs := make([]ev, 0, len(v.Arrivals)+len(v.Reads))
	for i := range v.Arrivals {
		evs = append(evs, ev{at: v.Arrivals[i].At, dq: +1, arr: i, ord: i})
	}
	for i := range v.Reads {
		evs = append(evs, ev{at: v.Reads[i].At, dq: -v.Reads[i].N, arr: -1, ord: len(v.Arrivals) + i})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		// Reads at the same instant as arrivals dequeue what was
		// already resident; order reads first so lengths never
		// overshoot.
		return evs[i].dq < evs[j].dq
	})
	q := 0
	for _, e := range evs {
		q += e.dq
		if q < 0 {
			q = 0
		}
		tl.times = append(tl.times, e.at)
		tl.qlen = append(tl.qlen, q)
		tl.arrivalIdx = append(tl.arrivalIdx, e.arr)
	}
	v.tl = tl
	return tl
}

func (tl *qlenTimeline) lastLEFor(k int) []int {
	if arr, ok := tl.lastLE[k]; ok {
		return arr
	}
	arr := make([]int, len(tl.qlen))
	last := -1
	for i, q := range tl.qlen {
		if q <= k {
			last = i
		}
		arr[i] = last
	}
	tl.lastLE[k] = arr
	return arr
}

// QueuingPeriodThreshold computes the queuing period at comp for a packet
// arriving at t, where the period begins after the last instant the queue
// held at most k packets (string-keyed wrapper of
// QueuingPeriodThresholdID).
func (s *Store) QueuingPeriodThreshold(comp string, t simtime.Time, k int) *QueuingPeriod {
	return s.QueuingPeriodThresholdID(s.CompIDOf(comp), t, k)
}

// QueuingPeriodThresholdID is QueuingPeriodThreshold for an interned
// component; k ≤ 0 is the paper's base definition (QueuingPeriodAtID). At
// k > 0 it reads the queue-length timelines warmed for k, and builds them
// on first use: a store that goroutines query concurrently at k > 0 must
// have been warmed for k first (WarmQueueThreshold).
func (s *Store) QueuingPeriodThresholdID(comp CompID, t simtime.Time, k int) *QueuingPeriod {
	if k <= 0 {
		return s.QueuingPeriodAtID(comp, t)
	}
	v := s.ViewID(comp)
	if v == nil || len(v.Arrivals) == 0 {
		return nil
	}
	tl := s.timelineOf(v)
	// Last event at or before t.
	pos := sort.Search(len(tl.times), func(i int) bool { return tl.times[i] > t }) - 1
	if pos < 0 {
		return nil
	}
	// The period starts at the first arrival after the last event at or
	// before t that left at most k packets queued.
	var anchorTime simtime.Time = -1
	if anchor := tl.lastLEFor(k)[pos]; anchor >= 0 {
		anchorTime = tl.times[anchor]
	}
	return v.periodAfter(anchorTime, t)
}

package tracestore

import (
	"sort"

	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/stats"
)

// Index is the immutable per-store diagnosis index: the store's
// threshold-independent summaries (summarize) plus the §7 queue-length
// timelines warmed for its threshold, so that any number of goroutines may
// query queuing periods concurrently without synchronization — the
// contract the parallel diagnosis stage relies on. A stream's window store
// keeps one Index for its lifetime and brings its summaries up to date,
// together with the store, between windows (window.go); while a window is
// being diagnosed it is as immutable as any other.
type Index struct {
	store *Store
	// QueueThreshold is the §7 period threshold the timelines were warmed
	// for (0 = the paper's base queuing-period definition).
	QueueThreshold int
}

// Store returns the store the index was built over.
func (ix *Index) Store() *Store { return ix.store }

// DelayStats returns the per-NF queue-delay statistics for comp, or nil.
func (ix *Index) DelayStats(comp string) *stats.Moments {
	return ix.DelayStatsID(ix.store.CompIDOf(comp))
}

// DelayStatsID is DelayStats for an interned component: its queue-delay
// moments for the §4.1 abnormality test, nil when it had no read hops.
func (ix *Index) DelayStatsID(comp CompID) *stats.Moments {
	ms := ix.store.moments
	if comp < 0 || int(comp) >= len(ms) || ms[comp].N() == 0 {
		return nil
	}
	return &ms[comp]
}

// LatencyPercentile returns the p-th percentile of delivered latencies by
// nearest rank, selected from the store's sorted latency runs without
// merging them (stats.PercentileRuns): a cold or segment store's one run,
// or a window store's segments' runs.
func (ix *Index) LatencyPercentile(p float64) float64 {
	return stats.PercentileRuns(ix.store.latRuns, p)
}

// TraceEnd returns the latest hop departure observed in the trace.
func (ix *Index) TraceEnd() simtime.Time { return ix.store.traceEnd }

// Index returns the diagnosis index for the given queue threshold, building
// it on first use. The returned index is immutable and safe to share across
// goroutines; repeated calls are O(1).
func (s *Store) Index(queueThreshold int) *Index {
	if queueThreshold < 0 {
		queueThreshold = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ix, ok := s.indexes[queueThreshold]; ok {
		return ix
	}
	if queueThreshold > 0 {
		for _, v := range s.views {
			s.timelineOf(v).lastLEFor(queueThreshold)
		}
	}
	ix := &Index{store: s, QueueThreshold: queueThreshold}
	if s.indexes == nil {
		s.indexes = make(map[int]*Index)
	}
	s.indexes[queueThreshold] = ix
	return ix
}

// summarize freezes what every Index of the store reads, as the last step
// of derive: one scan of the journeys gives the per-component queue-delay
// moments, the delivered latencies (sorted) and the latest hop departure,
// and every view's queuing-period search arrays are filled into the
// store's slabs. Delays are kept as exact integer moments (stats.Moments)
// so a window store adds and subtracts its segments' and lands on the
// values this scan would give over the window. Latencies are sorted as the
// integers they are and only then widened: the conversion is monotone, so
// the run is the one a float sort would give.
func (s *Store) summarize(sc *scratch) {
	s.moments = resize(s.moments, len(s.views))
	clear(s.moments)
	lats := resize(sc.lats, len(s.Journeys))[:0] // room for every journey delivered
	s.traceEnd = 0
	for i := range s.Journeys {
		j := &s.Journeys[i]
		for h := range j.Hops {
			hop := &j.Hops[h]
			if hop.ReadAt == 0 && hop.DepartAt == 0 {
				continue
			}
			s.moments[hop.Comp].Add(int64(hop.ReadAt.Sub(hop.ArriveAt)))
			if hop.DepartAt > s.traceEnd {
				s.traceEnd = hop.DepartAt
			}
		}
		if j.Delivered {
			lats = append(lats, int64(j.Latency()))
		}
	}
	sc.lats, sc.latsTmp = lats, resize(sc.latsTmp, len(lats))
	sorted := sortInts(lats, sc.latsTmp)
	s.latRun = resize(s.latRun, len(sorted))
	for i, l := range sorted {
		s.latRun[i] = float64(l)
	}
	s.latRuns = append(s.latRuns[:0], s.latRun)
	s.warmPeriodIndexes()
}

// sortInts sorts a into ascending order by a least-significant-digit radix
// sort over the span of its values, one byte per pass, back and forth
// between a and tmp (as long as a). It returns whichever holds the result.
func sortInts(a, tmp []int64) []int64 {
	if len(a) < 2 {
		return a
	}
	lo, hi := a[0], a[0]
	for _, x := range a {
		lo, hi = min(lo, x), max(hi, x)
	}
	// Offsets from lo, in unsigned arithmetic: exact for any two int64s.
	span := uint64(hi) - uint64(lo)
	var count [256]int
	for shift := 0; shift < 64 && span>>shift != 0; shift += 8 {
		clear(count[:])
		for _, x := range a {
			count[(uint64(x)-uint64(lo))>>shift&0xff]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, x := range a {
			d := (uint64(x) - uint64(lo)) >> shift & 0xff
			tmp[count[d]] = x
			count[d]++
		}
		a, tmp = tmp, a
	}
	return a
}

// FlowDelivery is one delivered packet of a flow: the journey index and its
// egress departure time.
type FlowDelivery struct {
	Journey int
	At      simtime.Time
}

// FlowIndex is the store-wide per-flow journey index: for every egress
// five-tuple, the delivered journeys in delivery order. It is threshold-
// independent, built once per store, and immutable afterwards.
type FlowIndex struct {
	// Flows lists every tuple with at least one delivered packet, in
	// canonical tuple order.
	Flows []packet.FiveTuple
	// Deliveries maps a tuple to its delivered journeys sorted by
	// (delivery time, journey index).
	Deliveries map[packet.FiveTuple][]FlowDelivery
	// End is the latest delivery time across all flows.
	End simtime.Time
}

// FlowIndex returns the per-flow journey index, building it on first use.
func (s *Store) FlowIndex() *FlowIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flowIdx != nil {
		return s.flowIdx
	}
	fi := &FlowIndex{Deliveries: make(map[packet.FiveTuple][]FlowDelivery)}
	for i := range s.Journeys {
		j := &s.Journeys[i]
		if !j.Delivered || len(j.Hops) == 0 {
			continue
		}
		at := j.Hops[len(j.Hops)-1].DepartAt
		if _, ok := fi.Deliveries[j.Tuple]; !ok {
			fi.Flows = append(fi.Flows, j.Tuple)
		}
		fi.Deliveries[j.Tuple] = append(fi.Deliveries[j.Tuple], FlowDelivery{Journey: i, At: at})
		if at > fi.End {
			fi.End = at
		}
	}
	sort.Slice(fi.Flows, func(i, j int) bool { return fi.Flows[i].Less(fi.Flows[j]) })
	for _, ds := range fi.Deliveries {
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].At != ds[j].At {
				return ds[i].At < ds[j].At
			}
			return ds[i].Journey < ds[j].Journey
		})
	}
	s.flowIdx = fi
	return fi
}

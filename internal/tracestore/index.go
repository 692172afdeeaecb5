package tracestore

import (
	"sort"

	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/stats"
)

// Index is the immutable per-store diagnosis index: everything the engine
// used to recompute per DiagnoseVictim/FindVictims call, built exactly once
// per (store, queue threshold) and then shared read-only. Building it also
// warms every per-component lazy structure (queuing-period search index,
// queue-length timeline), so any number of goroutines may afterwards query
// queuing periods concurrently without synchronization — the contract the
// parallel diagnosis stage relies on. A stream's window store keeps one
// Index for its lifetime and brings it up to date, together with the
// store, between windows (window.go); while a window is being diagnosed it
// is as immutable as any other.
type Index struct {
	store *Store
	// QueueThreshold is the §7 period threshold the timelines were warmed
	// for (0 = the paper's base queuing-period definition).
	QueueThreshold int

	// delayStats holds per-NF queue-delay statistics for the §4.1
	// abnormality test, indexed by CompID. Delays are kept as exact
	// integer moments (stats.Moments) so the streaming path can merge
	// per-epoch partial summaries and land on bit-identical values to a
	// full sequential scan. An entry with N()==0 means the component had
	// no read hops.
	delayStats []stats.Moments
	// latencies are delivered-journey latencies, ascending, for percentile
	// thresholds. A cold index wraps the one sorted slice its scan produced;
	// a stream's window index adds and removes a segment's sorted run per
	// slide.
	latencies stats.SortedBag
	// traceEnd is the latest hop departure in the trace.
	traceEnd simtime.Time
}

// Store returns the store the index was built over.
func (ix *Index) Store() *Store { return ix.store }

// DelayStats returns the per-NF queue-delay statistics for comp, or nil.
func (ix *Index) DelayStats(comp string) *stats.Moments {
	return ix.DelayStatsID(ix.store.CompIDOf(comp))
}

// DelayStatsID is DelayStats for an interned component.
func (ix *Index) DelayStatsID(comp CompID) *stats.Moments {
	if comp < 0 || int(comp) >= len(ix.delayStats) {
		return nil
	}
	w := &ix.delayStats[comp]
	if w.N() == 0 {
		return nil
	}
	return w
}

// LatencyPercentile returns the p-th percentile of delivered latencies.
func (ix *Index) LatencyPercentile(p float64) float64 {
	return ix.latencies.Percentile(p)
}

// TraceEnd returns the latest hop departure observed in the trace.
func (ix *Index) TraceEnd() simtime.Time { return ix.traceEnd }

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
	ix := s.buildIndex(queueThreshold)
	if s.indexes == nil {
		s.indexes = make(map[int]*Index)
	}
	s.indexes[queueThreshold] = ix
	return ix
}

func (s *Store) buildIndex(queueThreshold int) *Index {
	ix := &Index{
		store:          s,
		QueueThreshold: queueThreshold,
		delayStats:     make([]stats.Moments, len(s.views)),
	}
	var latencies []float64
	for i := range s.Journeys {
		j := &s.Journeys[i]
		for h := range j.Hops {
			hop := &j.Hops[h]
			if hop.ReadAt == 0 && hop.DepartAt == 0 {
				continue
			}
			ix.delayStats[hop.Comp].Add(int64(hop.ReadAt.Sub(hop.ArriveAt)))
			if hop.DepartAt > ix.traceEnd {
				ix.traceEnd = hop.DepartAt
			}
		}
		if j.Delivered {
			latencies = append(latencies, float64(j.Latency()))
		}
	}
	sort.Float64s(latencies)
	ix.latencies = stats.SortedBagOf(latencies)

	// Warm every lazy per-component structure so post-build queries are
	// pure reads: the period search index always, and the queue-length
	// timeline (plus its last-below-threshold table) when the threshold
	// definition is in play.
	for _, v := range s.views {
		s.periodIndexOf(v)
		if queueThreshold > 0 {
			tl := s.timelineOf(v)
			tl.lastLEFor(queueThreshold)
		}
	}
	return ix
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

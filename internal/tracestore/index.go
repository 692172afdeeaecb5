package tracestore

import (
	"microscope/internal/simtime"
	"microscope/internal/stats"
)

// DelayStats returns the per-NF queue-delay statistics for comp, or nil.
func (s *Store) DelayStats(comp string) *stats.Moments {
	return s.DelayStatsID(s.CompIDOf(comp))
}

// DelayStatsID is DelayStats for an interned component: its queue-delay
// moments for the §4.1 abnormality test, nil when it had no read hops.
func (s *Store) DelayStatsID(comp CompID) *stats.Moments {
	ms := s.moments
	if comp < 0 || int(comp) >= len(ms) || ms[comp].N() == 0 {
		return nil
	}
	return &ms[comp]
}

// LatencyPercentile returns the p-th percentile of delivered latencies by
// nearest rank, selected from the store's sorted latency runs without
// merging them (stats.PercentileRuns): a cold or segment store's one run,
// or a window store's segments' runs.
func (s *Store) LatencyPercentile(p float64) float64 {
	return stats.PercentileRuns(s.latRuns, p)
}

// TraceEnd returns the latest hop departure observed in the trace.
func (s *Store) TraceEnd() simtime.Time { return s.traceEnd }

// WarmQueueThreshold builds every view's §7 queue-length timeline for
// threshold k (nothing at k ≤ 0), so that QueuingPeriodThresholdID at k
// only reads afterwards: the diagnosis runs it before its goroutines fan
// out over the store. It is idempotent and safe to call concurrently.
func (s *Store) WarmQueueThreshold(k int) {
	if k <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.views {
		s.timelineOf(v).lastLEFor(k)
	}
}

// summarize freezes what the diagnosis reads of the store, as the last
// step of derive: one scan of the journeys gives the per-component
// queue-delay moments, the delivered latencies (sorted) and the latest hop
// departure, and every view's drain times are filled into the store's
// drains slab. Delays are kept as exact integer moments (stats.Moments)
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

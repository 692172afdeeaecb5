package tracestore

import (
	"fmt"
	"slices"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/faults"
	"microscope/internal/simtime"
)

// periodThresholds are the queue thresholds the period checks ask at: the
// paper's base definition, and two §7 thresholds.
var periodThresholds = []int{0, 3, 16}

// periodsByScan answers QueuingPeriodThresholdID(v.ID, t, k) for every t
// of ts (ascending) from the definitions, in one pass over v's rows that
// shares nothing with the store's search. The period starts at the first
// arrival after its anchor and ends at t. At k = 0 the anchor is the last
// read strictly before t that left the queue empty: a batch smaller than
// MaxBatch (§5). At k > 0 it is the last instant at or before t at which
// the queue, walked event by event with reads dequeuing before arrivals
// enqueue at one instant, held at most k packets. NIn counts the period's
// arrivals and NProc the packets read from its start to t.
func periodsByScan(st *Store, v *CompView, k int, ts []simtime.Time) []*QueuingPeriod {
	out := make([]*QueuingPeriod, len(ts))
	arr, reads := v.Arrivals, v.Reads
	if len(arr) == 0 {
		return out
	}
	cum := make([]int, len(reads)+1) // cum[i]: packets read by reads[:i]
	for i, r := range reads {
		cum[i+1] = cum[i] + r.N
	}
	var anchor simtime.Time
	anchored := false
	q, ai, ri := 0, 0, 0 // the queue walk (k > 0): length, arrivals and reads walked
	di := 0              // reads looked at for a drain (k = 0)
	first, next := 0, 0  // the first arrival after the anchor; arrivals at or before t
	lo, hi := 0, 0       // the first read at or after the start; reads at or before t
	for n, t := range ts {
		if k == 0 {
			for ; di < len(reads) && reads[di].At < t; di++ {
				if reads[di].N < st.MaxBatch {
					anchor, anchored = reads[di].At, true
				}
			}
		} else {
			for {
				var at simtime.Time
				if ri < len(reads) && reads[ri].At <= t && (ai == len(arr) || reads[ri].At <= arr[ai].At) {
					q, at = max(q-reads[ri].N, 0), reads[ri].At
					ri++
				} else if ai < len(arr) && arr[ai].At <= t {
					q, at = q+1, arr[ai].At
					ai++
				} else {
					break
				}
				if q <= k {
					anchor, anchored = at, true
				}
			}
		}
		for anchored && first < len(arr) && arr[first].At <= anchor {
			first++
		}
		for next < len(arr) && arr[next].At <= t {
			next++
		}
		if next <= first {
			continue
		}
		start := arr[first].At
		for lo < len(reads) && reads[lo].At < start {
			lo++
		}
		for hi < len(reads) && reads[hi].At <= t {
			hi++
		}
		out[n] = &QueuingPeriod{
			Comp: v.ID, Start: start, End: t,
			ArrivalFirst: v.firstArrival + first, ArrivalLast: v.firstArrival + next - 1,
			NIn: next - first, NProc: cum[hi] - cum[lo],
		}
	}
	return out
}

// periodInstants are the instants a view is asked for its queuing period
// at: every stride-th arrival and read instant from the off-th, and the
// first and last of each, with 1 ns either side. They come ascending and
// without repeats.
func periodInstants(v *CompView, stride, off int) []simtime.Time {
	var ts []simtime.Time
	add := func(i, n int, at simtime.Time) {
		if (i+off)%stride == 0 || i == 0 || i == n-1 {
			ts = append(ts, at-1, at, at+1)
		}
	}
	for i := range v.Arrivals {
		add(i, len(v.Arrivals), v.Arrivals[i].At)
	}
	for i := range v.Reads {
		add(i, len(v.Reads), v.Reads[i].At)
	}
	slices.Sort(ts)
	return slices.Compact(ts)
}

// periodTally counts what the period checks compared, so that a check
// that compared only empty periods fails.
type periodTally struct {
	periods, long, thresholdMoved int
}

func qpString(qp *QueuingPeriod) string {
	if qp == nil {
		return "none"
	}
	return fmt.Sprintf("%+v", *qp)
}

// check holds every view of st to periodsByScan at periodInstants(v,
// stride, off), at every periodThresholds value.
func (pt *periodTally) check(t *testing.T, what string, st *Store, stride, off int) {
	t.Helper()
	for id := 0; id < st.NumComps(); id++ {
		v := st.ViewID(CompID(id))
		ts := periodInstants(v, stride, off)
		var base []*QueuingPeriod
		for _, k := range periodThresholds {
			want := periodsByScan(st, v, k, ts)
			for n, at := range ts {
				got := st.QueuingPeriodThresholdID(v.ID, at, k)
				if (got == nil) != (want[n] == nil) || got != nil && *got != *want[n] {
					t.Fatalf("%s: %s at %d, threshold %d: %s, a scan gives %s", what, v.Name, at, k, qpString(got), qpString(want[n]))
				}
				if got == nil {
					continue
				}
				pt.periods++
				if got.NIn > 1 && got.NProc > 0 {
					pt.long++
				}
				if k > 0 && (base[n] == nil || *base[n] != *got) {
					pt.thresholdMoved++
				}
			}
			if k == 0 {
				base = want
			}
		}
	}
}

// TestWindowQueuingPeriodMatchesScan holds the store's queuing periods to
// their definitions (periodsByScan) on every kind of store: cold Builds of
// a clean, a damaged and an IPID-wrapping trace, every window a stream
// slides through at each span, and the segment stores it sealed. Each
// window is asked at a sample of its rows' instants, a different sample
// every window.
func TestWindowQueuingPeriodMatchesScan(t *testing.T) {
	eval := evalTrace(t, 6, simtime.MPPS(1.2), simtime.Duration(simtime.Millisecond))
	damaged, _ := faults.Inject(eval, faults.Config{Seed: 8, DupRate: 0.02, ReorderRate: 0.05, TruncateRate: 0.02, DropRate: 0.01})
	var cold, win periodTally
	for i, tr := range []*collector.Trace{eval, damaged, wrapTrace(600)} {
		cold.check(t, fmt.Sprintf("cold store %d", i), Build(tr), 1, 0)
	}
	for _, span := range windowSpans {
		d := newSlidingStream(t, simtime.MPPS(0.3), span)
		for i := 0; i < int(2*span)+8; i++ {
			win.check(t, fmt.Sprintf("span %gx, window %d", span, i), d.slide(), 16, i)
		}
		for i, g := range d.s.segs {
			win.check(t, fmt.Sprintf("span %gx, segment %d", span, i), g.st, 1, 0)
		}
	}
	// The sliding streams carry too little load to queue; the same spans
	// over the 1.2 Mpps trace, clean and damaged, do.
	for i, tr := range []*collector.Trace{eval, damaged} {
		for _, span := range windowSpans {
			s, err := NewStream(tr.Meta, StreamConfig{Window: windowSlide, Overlap: simtime.Duration((span - 1) * float64(windowSlide))})
			if err != nil {
				t.Fatal(err)
			}
			for end := simtime.Time(windowSlide); end <= simtime.Time(3*simtime.Millisecond); end += simtime.Time(windowSlide) {
				s.Advance(end, tr.Records)
				st, _ := s.Window(end)
				win.check(t, fmt.Sprintf("trace %d, span %gx, window ending %d", i, span, end), st, 4, int(end/simtime.Time(windowSlide)))
			}
		}
	}
	t.Logf("cold stores: %+v; windows and segments: %+v", cold, win)
	for _, pt := range []periodTally{cold, win} {
		if pt.long == 0 || pt.thresholdMoved == 0 {
			t.Fatalf("%+v: no period both read and queued more than one packet, or none a threshold moved", pt)
		}
	}
}

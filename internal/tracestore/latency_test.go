package tracestore

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"microscope/internal/simtime"
	"microscope/internal/stats"
)

// windowSpans are the spans, in slides, the window tests and benchmarks
// slide at: most of each window new (1.5), serve-fine-paced (20), and deep.
var windowSpans = []float64{1.5, 20, 80}

// latenciesOf is the definition LatencyPercentile answers to: the
// latencies of the store's delivered journeys, sorted.
func latenciesOf(st *Store) []float64 {
	var lat []float64
	for i := range st.Journeys {
		if j := &st.Journeys[i]; j.Delivered {
			lat = append(lat, float64(j.Latency()))
		}
	}
	slices.Sort(lat)
	return lat
}

// checkLatencyPercentile holds the store's latency percentiles to
// PercentileSorted over latenciesOf, at both ends of the range the spec
// accepts and around the default victim percentile.
func checkLatencyPercentile(t *testing.T, what string, st *Store) {
	t.Helper()
	lat := latenciesOf(st)
	if len(lat) == 0 {
		t.Fatalf("%s: no delivered journeys; the check would compare nothing", what)
	}
	for _, p := range []float64{0, 1, 50, 90, 99, 99.9, 99.99} {
		if got, want := st.LatencyPercentile(p), stats.PercentileSorted(lat, p); got != want {
			t.Fatalf("%s (%d latencies): p%v = %v, the journeys give %v", what, len(lat), p, got, want)
		}
	}
}

// TestWindowLatencyPercentileMatchesJourneys: on every window of a stream
// sliding at each span and each load, and on a cold store, the latency
// percentile is the nearest-rank percentile of the latencies recomputed
// from the store's journeys — and selecting it allocates nothing.
func TestWindowLatencyPercentileMatchesJourneys(t *testing.T) {
	for _, rate := range windowRates {
		queued := false
		for _, span := range windowSpans {
			d := newSlidingStream(t, rate, span)
			var st *Store
			for i := 0; i < int(2*span)+8; i++ {
				st = d.slide()
				checkLatencyPercentile(t, fmt.Sprintf("%v, span %gx, window %d", rate, span, i), st)
			}
			queued = queued || queues(st)
			if a := testing.AllocsPerRun(20, func() { st.LatencyPercentile(99) }); a != 0 {
				t.Errorf("%v, span %gx: %v allocations per percentile, want 0", rate, span, a)
			}
		}
		if rate == simtime.MPPS(1.2) && !queued {
			t.Errorf("%v: no window holds a queuing period of more than one arrival", rate)
		}
	}
	checkLatencyPercentile(t, "cold store", Build(evalTrace(t, 2, simtime.MPPS(0.3), 5*simtime.Millisecond)))
}

// segmentRows is the rows window.append writes for a sealed segment's
// store: journeys, hops and its latency run, and per component its
// arrivals, reads and drain times.
func segmentRows(st *Store) int64 {
	n := len(st.Journeys) + len(st.hopArena) + len(st.latRuns)
	for _, v := range st.views {
		n += len(v.Arrivals) + len(v.Reads) + len(v.pidx.drainTimes)
	}
	return int64(n)
}

// TestWindowRowsPerSlide is BenchmarkWindow's claim — a window costs its
// slide, not its span — counted instead of timed, over three spans of the
// deepest window past each stream's warm-up:
//   - every span appends per slide exactly the rows of the slide's
//     segments, so 20 and 80 slides, whose grids cut a slide into one
//     segment, append the same rows; at 1.5 the overlap puts a retain
//     boundary mid-slide, and journeys across it become two partial ones;
//   - compaction moves at most one row per row appended (col.reserve). A
//     move is paid for by the appends after it, so the last one's rows —
//     no more than the window holds, appended minus dropped — are not yet
//     paid for;
//   - a second run counts exactly the same.
func TestWindowRowsPerSlide(t *testing.T) {
	const slides = 240
	count := func(span float64) (WindowRows, *slidingStream, int) {
		d := newSlidingStream(t, simtime.MPPS(0.3), span)
		for i := 0; i < slides; i++ {
			d.slide()
		}
		// newSlidingStream's warm-up slid int(4*span)+4 windows.
		return d.s.Stats().WindowRows, d, int(4*span) + 4 + slides
	}
	perSlide := map[float64]int64{}
	for _, span := range windowSpans {
		wr, d, n := count(span)
		t.Logf("span %gx: %d slides; per slide %.1f appended, %.1f dropped, %.1f moved",
			span, n, float64(wr.Appended)/float64(n), float64(wr.Dropped)/float64(n), float64(wr.Moved)/float64(n))
		var slideRows int64
		segs := d.s.segs
		for _, g := range segs[len(segs)-d.s.Stats().SealedSegments:] {
			slideRows += segmentRows(g.st)
		}
		if wr.Appended != int64(n)*slideRows {
			t.Errorf("span %gx: %d rows appended over %d slides of %d rows each", span, wr.Appended, n, slideRows)
		}
		perSlide[span] = slideRows
		if live := wr.Appended - wr.Dropped; wr.Moved > wr.Appended+live {
			t.Errorf("span %gx: %d rows moved for %d appended, with %d in the window", span, wr.Moved, wr.Appended, live)
		}
		if again, _, _ := count(span); again != wr {
			t.Errorf("span %gx: %+v, then %+v on the same slides", span, wr, again)
		}
	}
	if perSlide[20] != perSlide[80] {
		t.Errorf("%d rows appended per slide at span 20x, %d at 80x", perSlide[20], perSlide[80])
	}
}

// percentileSink keeps the benchmarked selections from being optimized
// away.
var percentileSink float64

// BenchmarkWindowLatencyPercentile is the victim threshold's cost per
// window (p99, as findVictims asks for it) on BenchmarkWindow's streams:
// what a window pays for its threshold beside Stream.Window itself.
func BenchmarkWindowLatencyPercentile(b *testing.B) {
	const windows, reps = 240, 64
	for _, span := range windowSpans {
		d := newSlidingStream(b, simtime.MPPS(0.3), span)
		var ns float64
		for i := 0; i < windows; i++ {
			st := d.slide()
			t := time.Now()
			for r := 0; r < reps; r++ {
				percentileSink = st.LatencyPercentile(99)
			}
			ns += float64(time.Since(t).Nanoseconds())
		}
		b.Run(fmt.Sprintf("span=%gx", span), func(b *testing.B) {
			b.ReportMetric(ns/(windows*reps), "ns/window")
		})
	}
}

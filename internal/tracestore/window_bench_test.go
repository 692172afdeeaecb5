package tracestore

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"microscope/internal/collector"
	"microscope/internal/simtime"
)

// windowSlide is the slide the window-cost measurements hold fixed while
// they vary the span: the serving tier's fine-paced cadence.
const windowSlide = 250 * simtime.Microsecond

// slidingStream feeds one slide of the 16-NF topology to a stream over and
// over, each time one slide later, at a span of spanSlides slides.
type slidingStream struct {
	s    *Stream
	seg  []collector.BatchRecord
	recs []collector.BatchRecord
	k    simtime.Time
}

// newSlidingStream slides a trace taken at rate. The benchmarks feed
// 0.3 Mpps, at which no queue builds; the tests also feed 1.2 Mpps, at
// which queues do.
func newSlidingStream(tb testing.TB, rate simtime.Rate, spanSlides float64) *slidingStream {
	tb.Helper()
	tr := evalTrace(tb, 1, rate, windowSlide)
	d := &slidingStream{}
	for _, r := range tr.Records {
		if r.At > 0 && r.At < simtime.Time(windowSlide) {
			d.seg = append(d.seg, r)
		}
	}
	overlap := simtime.Duration((spanSlides - 1) * float64(windowSlide))
	var err error
	if d.s, err = NewStream(tr.Meta, StreamConfig{Window: windowSlide, Overlap: overlap}); err != nil {
		tb.Fatal(err)
	}
	// Two spans in: every column has been through a compaction, shells are
	// coming off the free list.
	for i := 0; i < int(4*spanSlides)+4; i++ {
		d.slide()
	}
	return d
}

// advance seals the next slide; slide also assembles its window.
func (d *slidingStream) advance() simtime.Time {
	d.recs = shiftedRecords(d.recs, d.seg, simtime.Duration(d.k)*windowSlide)
	d.k++
	end := d.k * simtime.Time(windowSlide)
	d.s.Advance(end, d.recs)
	return end
}

func (d *slidingStream) slide() *Store {
	st, _ := d.s.Window(d.advance())
	return st
}

// windowCost is what one Window call costs, averaged over n slides.
type windowCost struct {
	ns, p50, bytes, allocs float64
	rows                   int
}

func (d *slidingStream) measure(n int) windowCost {
	var c windowCost
	var before, after runtime.MemStats
	each := make([]float64, n)
	for i := 0; i < n; i++ {
		end := d.advance()
		runtime.ReadMemStats(&before)
		t := time.Now()
		st, _ := d.s.Window(end)
		each[i] = float64(time.Since(t).Nanoseconds())
		c.ns += each[i]
		runtime.ReadMemStats(&after)
		c.bytes += float64(after.TotalAlloc - before.TotalAlloc)
		c.allocs += float64(after.Mallocs - before.Mallocs)
		c.rows = len(st.Journeys)
	}
	sort.Float64s(each)
	c.p50 = each[n/2]
	c.ns /= float64(n)
	c.bytes /= float64(n)
	c.allocs /= float64(n)
	return c
}

// windowRates are the loads the window tests slide at: one at which no
// queue builds, and one at which queues do.
var windowRates = []simtime.Rate{simtime.MPPS(0.3), simtime.MPPS(1.2)}

// queues reports whether a journey of st arrived in a queuing period that
// holds more than one arrival.
func queues(st *Store) bool {
	for i := range st.Journeys {
		for _, h := range st.Journeys[i].Hops {
			if qp := st.QueuingPeriodAtID(h.Comp, h.ArriveAt); qp != nil && qp.NIn > 1 {
				return true
			}
		}
	}
	return false
}

// TestWindowSteadyStateAllocs: once a stream's window store has grown to
// its window, assembling the next window allocates next to nothing, and
// the same next-to-nothing whether the window spans 20 slides or 80 — what
// it allocates cannot be proportional to the span. It holds at a load that
// queues as at one that does not.
func TestWindowSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped in -short mode")
	}
	for _, rate := range windowRates {
		var cost [2]windowCost
		for i, span := range []float64{20, 80} {
			d := newSlidingStream(t, rate, span)
			cost[i] = d.measure(60)
			q := queues(d.slide())
			t.Logf("%v, span %gx slide: %d journeys, %.2f allocs and %.0f B per window; queues: %v", rate, span, cost[i].rows, cost[i].allocs, cost[i].bytes, q)
			if cost[i].allocs > 2 || cost[i].bytes > 2048 {
				t.Errorf("%v, span %gx slide: a window allocates %.2f objects, %.0f B; budget 2 objects, 2 KiB", rate, span, cost[i].allocs, cost[i].bytes)
			}
			if rate == simtime.MPPS(1.2) && !q {
				t.Errorf("%v, span %gx slide: no queuing period holds more than one arrival", rate, span)
			}
		}
		if cost[1].rows < 3*cost[0].rows {
			t.Fatalf("%v: the wide window holds %d journeys, the narrow one %d: not a span comparison", rate, cost[1].rows, cost[0].rows)
		}
		if d := cost[1].allocs - cost[0].allocs; d > 0.5 || d < -0.5 {
			t.Errorf("%v: allocations per window move with the span: %.2f at 20x, %.2f at 80x", rate, cost[0].allocs, cost[1].allocs)
		}
		if d := cost[1].bytes - cost[0].bytes; d > 512 || d < -512 {
			t.Errorf("%v: bytes per window move with the span: %.0f at 20x, %.0f at 80x", rate, cost[0].bytes, cost[1].bytes)
		}
	}
}

// BenchmarkWindow is Stream.Window alone — the seal is outside the
// measurement — at one slide and three spans: a slide and a half
// (serve-bulk-sat's shape: most of each window is new), twenty slides
// (serve-fine-paced) and eighty. A window costs its slide, not its span:
// the typical window (p50) may not differ by more than 1.5x between the
// three, nor the mean — which also carries each column's once-per-span
// compaction, a copy of the rows that entered since the last one, and the
// cache misses of a store eighty slides deep — by more than 2x. Assembled
// by a fresh merge per window, the means were 1 : 10 : 37 (57, 545 and
// 2128 us, and 0.09, 0.98 and 3.8 MB allocated).
func BenchmarkWindow(b *testing.B) {
	// Windows per measurement: three spans of the widest window, so each
	// averages over several compactions of every column. The spans are
	// measured round-robin, three rounds, each keeping its quietest round:
	// host drift then lands on every span alike instead of on whichever
	// ran during it, and -benchtime=1x on a shared host is still a
	// measurement.
	const perOp, tries = 240, 3
	spans := []float64{1.5, 20, 80}
	streams := make([]*slidingStream, len(spans))
	for i, span := range spans {
		streams[i] = newSlidingStream(b, simtime.MPPS(0.3), span)
	}
	cost := make([]windowCost, len(spans))
	runtime.GC() // the streams' construction garbage, as before any benchmark
	for t := 0; t < tries; t++ {
		for i, d := range streams {
			c := d.measure(perOp)
			if t > 0 {
				c.ns, c.p50 = min(c.ns, cost[i].ns), min(c.p50, cost[i].p50)
			}
			cost[i] = c
		}
	}
	for i, span := range spans {
		c := cost[i]
		b.Run(fmt.Sprintf("span=%gx", span), func(b *testing.B) {
			b.ReportMetric(c.ns, "ns/window")
			b.ReportMetric(c.p50, "p50-ns/window")
			b.ReportMetric(c.bytes, "B/window")
			b.ReportMetric(c.allocs, "allocs/window")
			b.ReportMetric(float64(c.rows), "journeys")
		})
	}
	spread := func(of func(windowCost) float64) float64 {
		lo, hi := of(cost[0]), of(cost[0])
		for _, c := range cost {
			lo, hi = min(lo, of(c)), max(hi, of(c))
		}
		return hi / lo
	}
	if p50, mean := spread(func(c windowCost) float64 { return c.p50 }), spread(func(c windowCost) float64 { return c.ns }); p50 > 1.5 || mean > 2 {
		b.Fatalf("ns/window at spans %v: %+v — p50 %.2fx apart (bound 1.5), mean %.2fx (bound 2): window assembly is paying for the span", spans, cost, p50, mean)
	}
}

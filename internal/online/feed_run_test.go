package online

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/obs"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
)

// feedProbe is a monitor with its own registry, recording every window it
// reports.
type feedProbe struct {
	m      *Monitor
	reg    *obs.Registry
	alerts []Alert
	// windows holds each reported window's end and fingerprint.
	windows []string
}

func newFeedProbe(meta collector.Meta, cfg Config) *feedProbe {
	p := &feedProbe{reg: obs.New()}
	cfg.Obs = p.reg
	cfg.OnWindow = func(end simtime.Time, res *pipeline.Result) {
		p.windows = append(p.windows, fmt.Sprintf("%v\n%s", end, res.Fingerprint()))
	}
	p.m = New(meta, cfg)
	return p
}

// state is what must agree between two monitors fed the same records:
// their stats, alerts, windows, backlog, and every counter and gauge but
// the sampled heap size.
func (p *feedProbe) state() string {
	snap := p.reg.TakeSnapshot()
	delete(snap.Gauges, "microscope_stream_heap_bytes")
	return fmt.Sprintf("stats %+v\nbacklog %d\nalerts %v\nwindows %d\ncounters %v\ngauges %v",
		p.m.Stats(), p.m.Backlog(), p.alerts, len(p.windows), snap.Counters, snap.Gauges)
}

// TestFeedRunsMatchOneAtATime: Feed, which appends in-order stretches to
// the pending buffer as runs, leaves a monitor exactly where feeding the
// same records one at a time through feedOne (the per-record path, with no
// runs) does — stats, alerts, window fingerprints, counters and gauges — at
// the end of every Feed call, over streams cut into chunks of random size.
// The streams carry late records inside the open window and in closed
// ones, records out of order by more than a neighbour, lone corrupt
// far-future times, records early by an eighth of a window, resync runs
// broken by an in-horizon record, a resync run after a genuine gap, and
// windows crossed mid-chunk, unbounded, bounded by RingCapacity under both
// shed policies, and with a lookahead horizon shorter than a window.
func TestFeedRunsMatchOneAtATime(t *testing.T) {
	const (
		w = 5 * simtime.Millisecond
		o = simtime.Millisecond
	)
	ms := func(v int) simtime.Time { return simtime.Time(simtime.Duration(v) * simtime.Millisecond) }
	tr := monitoredRun(t, []simtime.Time{ms(12), ms(45)})
	var base []collector.BatchRecord
	for _, r := range tr.Records {
		if r.At < ms(70) {
			base = append(base, r)
		}
	}
	perWindow := len(base) / 14

	// stream derives one adversarial stream from base.
	stream := func(rng *rand.Rand) []collector.BatchRecord {
		var recs []collector.BatchRecord
		for _, r := range base {
			if r.At >= ms(50) {
				r.At += ms(300) // a genuine gap past MaxLookahead: resync
			}
			recs = append(recs, r)
			switch x := rng.Intn(4000); {
			case x < 10: // late into a window long closed
				late := r
				late.At -= simtime.Time(3 * w)
				recs = append(recs, late)
			case x < 20: // a lone corrupt far-future timestamp, unrelated to any other
				bad := r
				bad.At = ms(10_000) + simtime.Time(rng.Int63n(1<<50))
				recs = append(recs, bad)
			case x == 20: // early by an eighth of a window: past a short horizon
				early := r
				early.At += simtime.Time(w / 8)
				recs = append(recs, early)
			}
		}
		// Out of order: neighbours swapped, and a few records moved back by
		// up to a fiftieth of a window's worth of positions.
		for i := 1; i < len(recs); i += 7 {
			recs[i-1], recs[i] = recs[i], recs[i-1]
		}
		for k := 0; k < len(recs)/500; k++ {
			i := 1 + rng.Intn(len(recs)-1)
			j := max(0, i-rng.Intn(perWindow/50))
			recs[i], recs[j] = recs[j], recs[i]
		}
		// Resync runs one record short, broken by an in-horizon record (a
		// copy of the newest record so far) that must reset them.
		var out []collector.BatchRecord
		var newest simtime.Time
		for _, r := range recs {
			out = append(out, r)
			if r.At < newest || r.At >= ms(10_000) {
				continue
			}
			newest = r.At
			if rng.Intn(4000) == 0 {
				far := r
				for k := range 4 {
					if k == 3 {
						out = append(out, r)
					}
					far.At = r.At + ms(1000) + simtime.Time(k)
					out = append(out, far)
				}
			}
		}
		return out
	}

	configs := map[string]Config{
		"unbounded": {},
		// A horizon shorter than the window: a record can be beyond it and
		// still close no window.
		"short-horizon": {MaxLookahead: w / 16},
		"reject-new": {Resilience: resilience.Config{
			RingCapacity: perWindow, Policy: resilience.ShedRejectNew}},
		"drop-oldest": {Resilience: resilience.Config{
			RingCapacity: perWindow, Policy: resilience.ShedDropOldest}},
	}
	for name, cfg := range configs {
		cfg.Window, cfg.Overlap, cfg.ResyncAfter = w, o, 4
		if cfg.MaxLookahead == 0 {
			cfg.MaxLookahead = 8 * w
		}
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				recs := stream(rng)
				ref, got := newFeedProbe(tr.Meta, cfg), newFeedProbe(tr.Meta, cfg)
				for lo := 0; lo < len(recs); {
					hi := min(len(recs), lo+1+rng.Intn(3*perWindow/2))
					if rng.Intn(4) == 0 {
						hi = min(len(recs), lo+1+rng.Intn(8))
					}
					for i := lo; i < hi; i++ {
						ref.alerts = ref.m.feedOne(&recs[i], ref.alerts)
					}
					got.alerts = append(got.alerts, got.m.Feed(recs[lo:hi])...)
					if g, r := got.state(), ref.state(); g != r {
						t.Fatalf("after records [%d,%d):\n--- runs ---\n%s\n--- one at a time ---\n%s", lo, hi, g, r)
					}
					lo = hi
				}
				ref.alerts = append(ref.alerts, ref.m.Flush()...)
				got.alerts = append(got.alerts, got.m.Flush()...)
				if g, r := got.state(), ref.state(); g != r {
					t.Fatalf("after Flush:\n--- runs ---\n%s\n--- one at a time ---\n%s", g, r)
				}
				if !reflect.DeepEqual(got.windows, ref.windows) {
					t.Fatalf("window fingerprints differ: %d windows vs %d", len(got.windows), len(ref.windows))
				}
				st := got.m.Stats()
				if st.LateAccepted == 0 || st.LateDropped == 0 || st.ImplausibleDropped == 0 ||
					st.WatermarkResyncs == 0 || len(got.windows) < 5 || len(got.alerts) == 0 {
					t.Fatalf("stream did not exercise late, closed-window, implausible and resync records: %d windows, %d alerts, %+v",
						len(got.windows), len(got.alerts), st)
				}
				if cfg.Resilience.RingCapacity > 0 && st.RecordsShed == 0 {
					t.Fatalf("bounded ring shed nothing: %+v", st)
				}
			})
		}
	}
}

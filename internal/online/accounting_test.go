package online

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/obs"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// geometries are the two window shapes the serving workloads run: a fine
// slide under a long overlap (O > W) and a bulk slide with a short one
// (O < W). capSlides is a RingCapacity, in slides of records, that a
// window outgrows: a fine window carries 20 slides, a bulk one 1.5.
var geometries = []struct {
	name      string
	w, o      simtime.Duration
	until     simtime.Time // how much of the trace to feed
	capSlides int
}{
	{"fine", 250 * simtime.Microsecond, 4750 * simtime.Microsecond, simtime.Time(20 * simtime.Millisecond), 3},
	{"bulk", 2 * simtime.Millisecond, simtime.Millisecond, simtime.Time(30 * simtime.Millisecond), 1},
}

// prefix returns the records of tr before until.
func prefix(tr *collector.Trace, until simtime.Time) []collector.BatchRecord {
	i := sort.Search(len(tr.Records), func(i int) bool { return tr.Records[i].At >= until })
	return tr.Records[:i]
}

// TestShedAccounting: every offered record is counted exactly once — sealed
// into the stream, shed, late, or implausible — under a RingCapacity the
// windows outgrow, at both geometries and under both shed policies. An in-order stream has no late records: an arrival in a window
// drop-oldest abandoned is shed, not late, and the sealed overlap a shed
// window carried is never counted as shed.
func TestShedAccounting(t *testing.T) {
	tr := monitoredRun(t, nil)
	for _, g := range geometries {
		recs := prefix(tr, g.until)
		perSlide := int(int64(len(recs)) * int64(g.w) / int64(g.until))
		for _, policy := range []resilience.ShedPolicy{resilience.ShedDropOldest, resilience.ShedRejectNew} {
			t.Run(fmt.Sprintf("%s/%s", g.name, policy), func(t *testing.T) {
				m := New(tr.Meta, Config{Window: g.w, Overlap: g.o, Resilience: resilience.Config{
					RingCapacity: g.capSlides * perSlide, Policy: policy}})
				for lo := 0; lo < len(recs); lo += 500 {
					m.Feed(recs[lo:min(lo+500, len(recs))])
				}
				m.Flush()
				st := m.Stats()
				sst, _ := m.StreamStats()
				if st.RecordsShed == 0 || st.Windows == 0 || st.WindowsQuarantined != 0 {
					t.Fatalf("vacuous: nothing shed, no window run, or a window quarantined: %+v", st)
				}
				if st.LateDropped != 0 {
					t.Fatalf("in-order stream counted %d records late: %+v", st.LateDropped, st)
				}
				if got := int(sst.Records) + st.RecordsShed + st.LateDropped + st.ImplausibleDropped; got != len(recs) {
					t.Fatalf("%d records offered, %d accounted for: %d sealed + %d shed + %d late + %d implausible",
						len(recs), got, sst.Records, st.RecordsShed, st.LateDropped, st.ImplausibleDropped)
				}
				if policy == resilience.ShedRejectNew && st.Records != int(sst.Records) {
					t.Fatalf("reject-new accepted %d records but sealed %d", st.Records, sst.Records)
				}
			})
		}
	}
}

// TestBacklogCountsUnsealed: after every Feed, Backlog() and the
// microscope_monitor_pending_records gauge both equal the records the
// monitor accepted above the stream's seal watermark and has not dropped —
// through late inserts, ladder skips (every window's, unbounded), and both
// shed policies at both geometries.
func TestBacklogCountsUnsealed(t *testing.T) {
	tr := monitoredRun(t, nil)
	for _, g := range geometries {
		recs := slices.Clone(prefix(tr, g.until))
		// Adjacent swaps: late records inserted into the open window.
		for i := 1; i < len(recs); i += 7 {
			recs[i-1], recs[i] = recs[i], recs[i-1]
		}
		perSlide := int(int64(len(recs)) * int64(g.w) / int64(g.until))
		configs := map[string]resilience.Config{
			"unbounded":   {Ladder: resilience.LadderConfig{MaxRecords: perSlide}},
			"reject-new":  {RingCapacity: g.capSlides * perSlide, Policy: resilience.ShedRejectNew},
			"drop-oldest": {RingCapacity: g.capSlides * perSlide, Policy: resilience.ShedDropOldest},
		}
		for name, rc := range configs {
			t.Run(g.name+"/"+name, func(t *testing.T) {
				reg := obs.New()
				m := New(tr.Meta, Config{Window: g.w, Overlap: g.o, Resilience: rc, Obs: reg})
				gauge := reg.Gauge("microscope_monitor_pending_records")
				// open models the accepted records not yet sealed: a record
				// the monitor accepted joins it, and a window drop-oldest
				// shed takes everything buffered before the arrival with it.
				var open []collector.BatchRecord
				sealed, peak := m.stream.Stream().SealedTo(), 0
				for i := range recs {
					before := m.Stats()
					m.Feed(recs[i : i+1])
					after := m.Stats()
					if after.WindowsShed > before.WindowsShed {
						open = open[:0]
					}
					if after.Records > before.Records {
						open = append(open, recs[i])
					}
					if s := m.stream.Stream().SealedTo(); s != sealed {
						sealed = s
						open = slices.DeleteFunc(open, func(r collector.BatchRecord) bool { return r.At <= sealed })
					}
					if b, v := m.Backlog(), gauge.Value(); b != len(open) || v != int64(b) {
						t.Fatalf("after record %d: Backlog %d, gauge %d, want %d accepted records above SealedTo %v",
							i, b, v, len(open), sealed)
					}
					peak = max(peak, len(open))
				}
				st := m.Stats()
				if st.LateAccepted == 0 || st.Windows < 5 || peak == 0 {
					t.Fatalf("vacuous: %d windows, peak backlog %d, %+v", st.Windows, peak, st)
				}
				if rc.RingCapacity > 0 && st.RecordsShed == 0 || rc.RingCapacity == 0 && st.WindowsSkipped == 0 {
					t.Fatalf("bounded monitor shed nothing, or the ladder skipped nothing: %+v", st)
				}
			})
		}
	}
}

// TestLadderCountsWholeWindow: the ladder's record count is the whole
// window's — the sealed overlap it carries as well as the records it
// brings — so with MaxRecords at the median window size a window is
// skipped exactly when a cold rebuild of it holds more records than that,
// at O < W and at O > W.
func TestLadderCountsWholeWindow(t *testing.T) {
	ms := func(v int) simtime.Time { return simtime.Time(simtime.Duration(v) * simtime.Millisecond) }
	tr := monitoredRun(t, nil)
	// Records in (10, 14] ms come twice, so window sizes vary.
	var recs []collector.BatchRecord
	for _, r := range prefix(tr, ms(30)) {
		recs = append(recs, r)
		if r.At > ms(10) && r.At <= ms(14) {
			recs = append(recs, r)
		}
	}
	for _, g := range []struct {
		name string
		w, o simtime.Duration
	}{
		{"O<W", 2 * simtime.Millisecond, simtime.Millisecond},
		{"O>W", simtime.Millisecond, 3 * simtime.Millisecond},
	} {
		t.Run(g.name, func(t *testing.T) {
			// The reference runs every window and notes the size of its
			// cold rebuild.
			var rec *tracestore.Recorder
			size := make(map[simtime.Time]int)
			ref := New(tr.Meta, Config{Window: g.w, Overlap: g.o,
				OnWindow: func(end simtime.Time, _ *pipeline.Result) {
					size[end] = rec.Rebuild().Health().Records
				}})
			rec = tracestore.NewRecorder(ref.stream.Stream())
			ref.Feed(recs)
			ref.Flush()
			var sizes []int
			for _, n := range size {
				sizes = append(sizes, n)
			}
			slices.Sort(sizes)
			k := sizes[len(sizes)/2]

			ran := make(map[simtime.Time]bool)
			m := New(tr.Meta, Config{Window: g.w, Overlap: g.o,
				Resilience: resilience.Config{Ladder: resilience.LadderConfig{MaxRecords: k}},
				OnWindow:   func(end simtime.Time, _ *pipeline.Result) { ran[end] = true }})
			m.Feed(recs)
			m.Flush()
			skipped := 0
			for end, n := range size {
				if ran[end] == (n > k) {
					t.Errorf("window ending %v holds %d records against MaxRecords %d, ran=%v", end, n, k, ran[end])
				}
				if n > k {
					skipped++
				}
			}
			if st := m.Stats(); st.WindowsSkipped != skipped || skipped == 0 || skipped == len(size) {
				t.Fatalf("%d windows skipped, %d of %d over %d records", st.WindowsSkipped, skipped, len(size), k)
			}
		})
	}
}

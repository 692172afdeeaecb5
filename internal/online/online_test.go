package online

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/leakcheck"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// monitoredRun simulates a chain and returns the trace plus meta.
func monitoredRun(t *testing.T, interruptsAt []simtime.Time) *collector.Trace {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 5,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
	)
	iv := simtime.MPPS(0.4).Interval()
	var ems []traffic.Emission
	i := 0
	for tt := simtime.Time(0); tt < simtime.Time(500*simtime.Millisecond); tt = tt.Add(iv) {
		ems = append(ems, traffic.Emission{
			At: tt,
			Flow: packet.FiveTuple{
				SrcIP: packet.IPFromOctets(10, 0, 0, byte(i%50)), DstIP: packet.IPFromOctets(23, 0, 0, 1),
				SrcPort: uint16(1024 + i%50), DstPort: 80, Proto: packet.ProtoTCP,
			},
			Size: 64, Burst: -1,
		})
		i++
	}
	sim.LoadSchedule(&traffic.Schedule{Emissions: ems})
	for _, at := range interruptsAt {
		sim.InjectInterrupt("fw1", at, 900*simtime.Microsecond, "mon")
	}
	sim.Run(simtime.Time(600 * simtime.Millisecond))
	return col.Trace(collector.MetaOf(sim))
}

func TestMonitorAlertsOnInterrupts(t *testing.T) {
	leakcheck.Check(t)
	tr := monitoredRun(t, []simtime.Time{
		simtime.Time(150 * simtime.Millisecond),
		simtime.Time(400 * simtime.Millisecond),
	})
	m := New(tr.Meta, Config{})
	// Feed in chunks like a drain loop would.
	var alerts []Alert
	const chunk = 5000
	for i := 0; i < len(tr.Records); i += chunk {
		end := i + chunk
		if end > len(tr.Records) {
			end = len(tr.Records)
		}
		alerts = append(alerts, m.Feed(tr.Records[i:end])...)
	}
	alerts = append(alerts, m.Flush()...)

	fw := 0
	for _, a := range alerts {
		if a.Comp == "fw1" && a.Kind == core.CulpritLocalProcessing {
			fw++
		}
		if a.Score <= 0 || a.Victims <= 0 {
			t.Errorf("degenerate alert: %v", a)
		}
	}
	if fw < 2 {
		t.Errorf("expected alerts for both interrupts, got %d fw1 alerts: %v", fw, alerts)
	}
	// Hold-off keeps each episode to one alert.
	if fw > 4 {
		t.Errorf("episodes over-alerted: %d: %v", fw, alerts)
	}
	st := m.Stats()
	if st.Windows < 4 || st.Records != len(tr.Records) {
		t.Errorf("stats: %+v", st)
	}
}

func TestMonitorQuietStream(t *testing.T) {
	tr := monitoredRun(t, nil)
	m := New(tr.Meta, Config{})
	alerts := m.Feed(tr.Records)
	alerts = append(alerts, m.Flush()...)
	if len(alerts) != 0 {
		t.Errorf("quiet stream raised %d alerts: %v", len(alerts), alerts)
	}
}

func TestMonitorAlertString(t *testing.T) {
	a := Alert{WindowEnd: 100, Comp: "fw1", Kind: core.CulpritLocalProcessing, Score: 42, Victims: 3, Onset: 50}
	s := a.String()
	for _, want := range []string{"fw1", "processing", "42", "victims=3"} {
		if !contains(s, want) {
			t.Errorf("alert string missing %q: %s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestMonitorEmptyFlush(t *testing.T) {
	m := New(collector.Meta{MaxBatch: 32}, Config{})
	if got := m.Flush(); got != nil {
		t.Errorf("empty flush: %v", got)
	}
}

// TestMonitorSecondFlushIsNoop: after Flush has diagnosed the last window
// the stream still holds that window's overlap tail, every record of it
// already diagnosed, and the monitor buffers nothing. A second Flush (a
// POST /flush followed by a tenant's drain) must not diagnose that tail
// again as a phantom window.
func TestMonitorSecondFlushIsNoop(t *testing.T) {
	w := simtime.Duration(100 * simtime.Microsecond)
	var ends []simtime.Time
	m := New(collector.Meta{MaxBatch: 32}, Config{Window: w, Overlap: w / 2,
		OnWindow: func(end simtime.Time, _ *pipeline.Result) { ends = append(ends, end) }})
	var recs []collector.BatchRecord
	for i := 0; i <= 144; i++ {
		recs = append(recs, collector.BatchRecord{
			Comp: "nf1", At: simtime.Time(simtime.Duration(2*i) * simtime.Microsecond),
			Dir: collector.DirRead, IPIDs: []uint16{uint16(i)},
		})
	}
	m.Feed(recs)
	m.Flush()
	st := m.Stats()
	if st.Windows != 3 || len(ends) != 3 {
		t.Fatalf("feed+flush: %d windows, %d reported (%v), want 3", st.Windows, len(ends), ends)
	}
	if got := m.Flush(); got != nil {
		t.Errorf("second flush alerted: %v", got)
	}
	if again := m.Stats(); again != st {
		t.Errorf("second flush changed stats:\n  before %+v\n  after  %+v", st, again)
	}
	if len(ends) != 3 {
		t.Errorf("second flush reported a phantom window: ends %v", ends)
	}
}

// TestMonitorToleratesLateRecords shuffles bounded lateness into the feed:
// the monitor must re-sort analysable records, drop only those behind an
// already-diagnosed window, and still alert on the real interrupt.
func TestMonitorToleratesLateRecords(t *testing.T) {
	tr := monitoredRun(t, []simtime.Time{simtime.Time(150 * simtime.Millisecond)})
	// Swap adjacent records to simulate cross-core drain interleaving.
	recs := append([]collector.BatchRecord(nil), tr.Records...)
	for i := 1; i < len(recs); i += 7 {
		recs[i-1], recs[i] = recs[i], recs[i-1]
	}
	m := New(tr.Meta, Config{})
	var alerts []Alert
	const chunk = 5000
	for i := 0; i < len(recs); i += chunk {
		end := i + chunk
		if end > len(recs) {
			end = len(recs)
		}
		alerts = append(alerts, m.Feed(recs[i:end])...)
	}
	alerts = append(alerts, m.Flush()...)
	if m.Stats().LateAccepted == 0 {
		t.Fatalf("no late records re-sorted: %+v", m.Stats())
	}
	found := false
	for _, a := range alerts {
		if a.Comp == "fw1" && a.Kind == core.CulpritLocalProcessing {
			found = true
			if a.Health.Records == 0 {
				t.Fatalf("alert carries empty health: %+v", a.Health)
			}
		}
	}
	if !found {
		t.Fatalf("interrupt not alerted under late delivery: %v", alerts)
	}
}

// TestWindowBoundaryRecord: a record timestamped exactly at a window end
// belongs to the window it closes (flushWindow's cut predicate is
// At > end), so Feed must buffer it before flushing — never flush the
// window out from under it and strand it in the next one.
func TestWindowBoundaryRecord(t *testing.T) {
	w := simtime.Duration(100 * simtime.Microsecond)
	var analysed int
	m := New(collector.Meta{MaxBatch: 32}, Config{Window: w, Overlap: 1,
		OnWindow: func(_ simtime.Time, res *pipeline.Result) { analysed = res.Health.Records }})
	m.Feed([]collector.BatchRecord{
		{Comp: "nf1", At: simtime.Time(w) / 2, Dir: collector.DirRead, IPIDs: []uint16{1}},
		{Comp: "nf1", At: simtime.Time(w), Dir: collector.DirRead, IPIDs: []uint16{2}},
	})
	if st := m.Stats(); st.Windows != 0 {
		t.Fatalf("boundary record flushed its own window early: %+v", st)
	}
	// The first record strictly past the boundary closes the window, with
	// the boundary record inside it.
	m.Feed([]collector.BatchRecord{
		{Comp: "nf1", At: simtime.Time(w) + 1, Dir: collector.DirRead, IPIDs: []uint16{3}},
	})
	if st := m.Stats(); st.Windows != 1 {
		t.Fatalf("strictly-later record did not close the window: %+v", st)
	}
	if analysed != 2 {
		t.Fatalf("closing window analysed %d records, want 2 — boundary record excluded", analysed)
	}
	// A record arriving at exactly the closed window's end is late: the
	// stream sealed that instant with the window.
	m.Feed([]collector.BatchRecord{
		{Comp: "nf1", At: simtime.Time(w), Dir: collector.DirRead, IPIDs: []uint16{4}},
	})
	if st := m.Stats(); st.LateDropped != 1 || st.LateAccepted != 0 {
		t.Fatalf("record at the closed boundary not dropped as late: %+v", st)
	}
}

// TestWatermarkResyncAfterGap: a stream gap longer than MaxLookahead must
// not poison the monitor forever. The guard drops the first beyond-horizon
// records — indistinguishable from corruption — but once ResyncAfter
// mutually-consistent timestamps arrive in a row, the watermark jumps
// forward and the stream flows again. Lone corrupt timestamps still die at
// the guard, and any in-horizon record resets the run.
func TestWatermarkResyncAfterGap(t *testing.T) {
	w := simtime.Duration(100 * simtime.Microsecond)
	m := New(collector.Meta{MaxBatch: 32}, Config{
		Window:       w,
		Overlap:      w / 5,
		MaxLookahead: 4 * w,
		ResyncAfter:  5,
		Resilience:   resilience.Config{ContainPanics: true},
	})
	rec := func(i int, at simtime.Time) collector.BatchRecord {
		return collector.BatchRecord{Comp: "nf1", At: at, Dir: collector.DirRead, IPIDs: []uint16{uint16(i)}}
	}
	var recs []collector.BatchRecord
	for i := 0; i < 20; i++ {
		recs = append(recs, rec(i, simtime.Time(i)*simtime.Time(w)/10))
	}
	m.Feed(recs)
	if st := m.Stats(); st.ImplausibleDropped != 0 {
		t.Fatalf("clean prefix tripped the plausibility guard: %+v", st)
	}
	// A lone corrupt far-future timestamp is dropped, no resync...
	m.Feed([]collector.BatchRecord{rec(100, simtime.Time(99*w))})
	if st := m.Stats(); st.ImplausibleDropped != 1 || st.WatermarkResyncs != 0 {
		t.Fatalf("lone corrupt timestamp not dropped cleanly: %+v", st)
	}
	// ...and the next in-horizon record resets the consistency run, so the
	// lone corruption cannot count toward the resumed stream's run below
	// even though it happens to land near it.
	m.Feed([]collector.BatchRecord{rec(101, simtime.Time(2*w)+1)})
	// The stream resumes 100 windows out — far beyond MaxLookahead. The
	// first ResyncAfter-1 resumed records are still dropped; the run's
	// completing record is accepted, the watermark jumps, and everything
	// after flows normally.
	gap := simtime.Time(100 * w)
	var resumed []collector.BatchRecord
	for i := 0; i < 10; i++ {
		resumed = append(resumed, rec(200+i, gap+simtime.Time(i)*simtime.Time(w)/10))
	}
	before := m.Stats().Records
	m.Feed(resumed)
	st := m.Stats()
	if st.WatermarkResyncs != 1 {
		t.Fatalf("gap did not resync the watermark: %+v", st)
	}
	// 1 lone corrupt + the 4 run records before the resync completed.
	if st.ImplausibleDropped != 5 {
		t.Fatalf("implausible drops = %d, want 5: %+v", st.ImplausibleDropped, st)
	}
	if got := st.Records - before; got != 6 {
		t.Fatalf("post-gap records accepted = %d, want 6 — the stream is still poisoned: %+v", got, st)
	}
}

// TestMonitorEvictionKeepsPace: the stream ingests every flush (gaps
// included) and evicts expired segments as the watermark moves, so its
// retained set stays bounded by the window span however long the feed.
func TestMonitorEvictionKeepsPace(t *testing.T) {
	leakcheck.Check(t)
	tr := monitoredRun(t, []simtime.Time{
		simtime.Time(150 * simtime.Millisecond),
		simtime.Time(400 * simtime.Millisecond),
	})
	m := New(tr.Meta, Config{})
	const chunk = 5000
	for i := 0; i < len(tr.Records); i += chunk {
		m.Feed(tr.Records[i:min(i+chunk, len(tr.Records))])
	}
	m.Flush()
	st, _ := m.StreamStats()
	if st.Records == 0 || st.SealedSegments == 0 {
		t.Fatalf("stream never ingested: %+v", st)
	}
	if st.RetainedSegments > 8 {
		t.Fatalf("eviction not keeping pace: %+v", st)
	}
	if ms := m.Stats(); ms.Records != len(tr.Records) || ms.Windows < 5 {
		t.Fatalf("ingest accounting: %+v", ms)
	}
}

// TestMonitorMonotoneCounters: Unmatched/Quarantined are the stream's
// seal-time totals, so they stay monotone across watermark resyncs and
// never replay overlap damage after a resync jump.
func TestMonitorMonotoneCounters(t *testing.T) {
	w := simtime.Duration(100 * simtime.Microsecond)
	m := New(collector.Meta{
		Components: []collector.ComponentMeta{
			{Name: "src", Kind: "source"},
			{Name: "nf1", Kind: "nf", PeakRate: simtime.MPPS(1), Egress: true},
		},
		Edges:    []collector.Edge{{From: "src", To: "nf1"}},
		MaxBatch: 32,
	}, Config{
		Window:       w,
		Overlap:      w / 5,
		MaxLookahead: 4 * w,
		ResyncAfter:  2,
	})
	// Each burst leaves one unmatched read (dequeue IPID matches no
	// arrival), straddling flush boundaries via the overlap.
	burst := func(at simtime.Time, id uint16) []collector.BatchRecord {
		return []collector.BatchRecord{
			{Comp: "src", Queue: "nf1.in", At: at, IPIDs: []uint16{id}, Dir: collector.DirWrite},
			{Comp: "nf1", At: at + 10, IPIDs: []uint16{id + 1000}, Dir: collector.DirRead},
		}
	}
	prev := 0
	check := func() {
		um := m.Stats().Unmatched
		if um < prev {
			t.Fatalf("Unmatched went backwards: %d -> %d", prev, um)
		}
		prev = um
	}
	for i := 0; i < 6; i++ {
		m.Feed(burst(simtime.Time(i)*simtime.Time(w)+simtime.Time(w)/2, uint16(i+1)))
		check()
	}
	// Resync jump: the stream gap exceeds MaxLookahead; after ResyncAfter
	// consistent records the watermark leaps. Counters must not replay.
	far := simtime.Time(200 * w)
	m.Feed(burst(far, 50))
	m.Feed(burst(far+simtime.Time(w)/4, 51))
	m.Feed(burst(far+simtime.Time(w), 52))
	m.Feed(burst(far+2*simtime.Time(w), 53))
	check()
	if m.Stats().WatermarkResyncs == 0 {
		t.Fatalf("gap did not resync: %+v", m.Stats())
	}
	m.Flush()
	check()
	if prev == 0 {
		t.Fatal("no unmatched reads ever counted — the probe is inert")
	}
}

// TestMonitorDropsAncientRecords: a record behind the last diagnosed window
// must be dropped and counted, never analysed twice or crash the sort.
func TestMonitorDropsAncientRecords(t *testing.T) {
	tr := monitoredRun(t, nil)
	m := New(tr.Meta, Config{})
	m.Feed(tr.Records)
	if m.Stats().Windows == 0 {
		t.Fatal("no windows flushed")
	}
	before := m.Stats().Records
	m.Feed([]collector.BatchRecord{{Comp: "nat1", At: 1, Dir: collector.DirRead, IPIDs: []uint16{1}}})
	st := m.Stats()
	if st.LateDropped != 1 {
		t.Fatalf("ancient record not dropped: %+v", st)
	}
	if st.Records != before {
		t.Fatal("dropped record still counted as fed")
	}
}

// TestNewOverlapValidation: a negative Overlap is a misconfiguration New
// refuses by name (the stream grid has no boundaries for it, and a window
// held back by a contained panic would keep records from beyond its end);
// zero takes the default.
func TestNewOverlapValidation(t *testing.T) {
	meta := collector.Meta{MaxBatch: 32}
	if m := New(meta, Config{}); m.cfg.Overlap != 20*simtime.Millisecond {
		t.Fatalf("zero Overlap resolved to %v, want the 20ms default", m.cfg.Overlap)
	}
	neg := -simtime.Millisecond
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Config.Overlap") || !strings.Contains(msg, fmt.Sprint(neg)) {
			t.Fatalf("panic %q does not name Config.Overlap and %v", msg, neg)
		}
	}()
	New(meta, Config{Overlap: neg})
	t.Fatal("negative Overlap accepted")
}

// rebuildWatch is a monitor whose OnWindow holds every reported window to
// the equivalence contract (DESIGN.md §11): its fingerprint must equal a
// fresh engine's run over the stream's cold rebuild of the same window.
// With tally on, it also checks the monitor→stream handoff the rebuild
// alone cannot see: the window holds exactly the records the monitor accepted in
// its span [end−Window−Overlap, end].
type rebuildWatch struct {
	m        *Monitor
	rec      *tracestore.Recorder
	tally    bool
	accepted []collector.BatchRecord
	ends     []simtime.Time
	victims  int
}

func watchRebuild(t *testing.T, meta collector.Meta, cfg Config, tally bool) *rebuildWatch {
	t.Helper()
	wt := &rebuildWatch{tally: tally}
	cfg.OnWindow = func(end simtime.Time, res *pipeline.Result) {
		m := wt.m
		ref, err := pipeline.RunStoreContext(context.Background(), wt.rec.Rebuild(),
			pipeline.Config{Diagnosis: m.cfg.Diagnosis, SkipPatterns: true, Degrade: res.Degradation})
		if err != nil {
			t.Fatalf("window ending %v: rebuild: %v", end, err)
		}
		if got, want := res.Fingerprint(), ref.Fingerprint(); got != want {
			t.Fatalf("window ending %v: monitor and cold rebuild differ\n--- monitor ---\n%s\n--- rebuild ---\n%s", end, got, want)
		}
		if wt.tally {
			from, n := end-simtime.Time(m.cfg.Window+m.cfg.Overlap), 0
			for _, r := range wt.accepted {
				if r.At >= from && r.At <= end {
					n++
				}
			}
			if ref.Health.Records != n {
				t.Fatalf("window ending %v holds %d records; the monitor accepted %d in its span", end, ref.Health.Records, n)
			}
		}
		wt.ends = append(wt.ends, end)
		wt.victims += len(res.Diagnoses)
	}
	wt.m = New(meta, cfg)
	wt.rec = tracestore.NewRecorder(wt.m.stream.Stream())
	return wt
}

// feed hands the monitor one record at a time, as a drain loop might,
// noting which ones it accepted, then flushes.
func (wt *rebuildWatch) feed(recs []collector.BatchRecord) {
	for i := range recs {
		before := wt.m.Stats().Records
		wt.m.Feed(recs[i : i+1])
		if wt.m.Stats().Records > before {
			wt.accepted = append(wt.accepted, recs[i])
		}
	}
	wt.m.Flush()
}

// TestMonitorWindowsMatchRebuild covers the monitor's handoff of its
// pending buffer to the stream (a buffer that late inserts, sheds, skips,
// gaps and resyncs have reshaped): every window OnWindow reports must
// equal a cold rebuild of that window from the stream's segments.
func TestMonitorWindowsMatchRebuild(t *testing.T) {
	const (
		w = 5 * simtime.Millisecond
		o = simtime.Millisecond
	)
	ms := func(v int) simtime.Time { return simtime.Time(simtime.Duration(v) * simtime.Millisecond) }
	tr := monitoredRun(t, []simtime.Time{ms(12), ms(60)})
	// base is the first 80 ms with the window (15,20] carrying every
	// record twice: past the ladder's MaxRecords and the RingCapacity
	// below, where every other window fits.
	var base []collector.BatchRecord
	for _, r := range tr.Records {
		if r.At < ms(80) {
			base = append(base, r)
			if r.At > ms(15) && r.At <= ms(20) {
				base = append(base, r)
			}
		}
	}
	// The ladder's input per window: its records plus the overlap tail.
	peak := 0
	for end := simtime.Time(w); end <= ms(80); end += simtime.Time(w) {
		if end == ms(20) {
			continue
		}
		n := 0
		for _, r := range base {
			if r.At >= end-simtime.Time(w+o) && r.At <= end {
				n++
			}
		}
		peak = max(peak, n)
	}
	limit := peak + peak/10

	t.Run("plain", func(t *testing.T) {
		wt := watchRebuild(t, tr.Meta, Config{}, true)
		wt.feed(tr.Records)
		if len(wt.ends) < 5 || wt.victims == 0 {
			t.Fatalf("vacuous: %d windows, %d victims", len(wt.ends), wt.victims)
		}
	})

	t.Run("late/skip/gap/resync", func(t *testing.T) {
		// The doubled window (15,20] is skipped by the ladder. (25,42) is a
		// stream gap: the windows ending at 35 and 40 ms are empty. From
		// 50 ms on the stream jumps 200 ms ahead, past MaxLookahead, and
		// resyncs.
		var recs []collector.BatchRecord
		for _, r := range base {
			switch {
			case r.At > ms(25) && r.At < ms(42):
				continue
			case r.At >= ms(50):
				r.At += ms(200)
			}
			recs = append(recs, r)
		}
		// Adjacent swaps: late but still inside the open window.
		for i := 1; i < len(recs); i += 7 {
			recs[i-1], recs[i] = recs[i], recs[i-1]
		}
		wt := watchRebuild(t, tr.Meta, Config{
			Window:       w,
			Overlap:      o,
			MaxLookahead: 8 * w,
			ResyncAfter:  4,
			Resilience:   resilience.Config{Ladder: resilience.LadderConfig{MaxRecords: limit}},
		}, true)
		wt.feed(recs)
		st := wt.m.Stats()
		if st.LateAccepted == 0 || st.WindowsSkipped == 0 || st.WatermarkResyncs == 0 {
			t.Fatalf("schedule did not exercise late inserts, a skip and a resync: %+v", st)
		}
		reported := make(map[simtime.Time]bool)
		for _, e := range wt.ends {
			reported[e] = true
		}
		if reported[ms(20)] || reported[ms(35)] || reported[ms(40)] || !reported[ms(45)] {
			t.Fatalf("skipped/empty windows reported or the window after the gap missing: %v", wt.ends)
		}
		if wt.victims == 0 {
			t.Fatal("no victims in any checked window")
		}
	})

	for _, policy := range []resilience.ShedPolicy{resilience.ShedDropOldest, resilience.ShedRejectNew} {
		t.Run(policy.String(), func(t *testing.T) {
			// Drop-oldest discards records it had accepted (a shed window's
			// buffered ones), so only reject-new keeps the tally.
			wt := watchRebuild(t, tr.Meta, Config{
				Window:     w,
				Overlap:    o,
				Resilience: resilience.Config{RingCapacity: limit, Policy: policy},
			}, policy == resilience.ShedRejectNew)
			wt.feed(base)
			if st := wt.m.Stats(); st.RecordsShed == 0 || len(wt.ends) < 10 {
				t.Fatalf("the doubled window shed nothing, or too few windows checked: %d windows, %+v", len(wt.ends), st)
			}
		})
	}
}

// TestMonitorRunsAtDegrade: Config.Degrade (the spec's stages.run) is the
// least degraded rung a window runs at. At victims-only every window still
// selects its victims but diagnoses none, so nothing alerts; at skipped
// every window is only ingested — sealed into the stream, never run.
func TestMonitorRunsAtDegrade(t *testing.T) {
	tr := monitoredRun(t, []simtime.Time{simtime.Time(150 * simtime.Millisecond)})
	run := func(l resilience.Level) (Stats, []Alert, []*pipeline.Result, *Monitor) {
		var windows []*pipeline.Result
		m := New(tr.Meta, Config{Degrade: l, OnWindow: func(_ simtime.Time, res *pipeline.Result) {
			windows = append(windows, &pipeline.Result{Victims: res.Victims, Diagnoses: res.Diagnoses, Degradation: res.Degradation})
		}})
		alerts := append(m.Feed(tr.Records), m.Flush()...)
		return m.Stats(), alerts, windows, m
	}
	full, fullAlerts, _, _ := run(resilience.Full)
	if len(fullAlerts) == 0 || full.Victims == 0 {
		t.Fatalf("control run at full raised no alerts: %+v", full)
	}

	st, alerts, windows, _ := run(resilience.VictimsOnly)
	victims := 0
	for _, res := range windows {
		if res.Degradation != resilience.VictimsOnly || len(res.Diagnoses) != 0 {
			t.Fatalf("window ran at %v with %d diagnoses, want victims-only with none", res.Degradation, len(res.Diagnoses))
		}
		victims += len(res.Victims)
	}
	if len(alerts) != 0 || st.Alerts != 0 || victims == 0 || len(windows) != full.Windows || st.Degraded != full.Windows {
		t.Fatalf("victims-only: %d alerts, %d victims selected over %d windows (want %d), stats %+v",
			len(alerts), victims, len(windows), full.Windows, st)
	}

	st, alerts, windows, m := run(resilience.Skipped)
	sst, _ := m.StreamStats()
	if len(alerts) != 0 || len(windows) != 0 || st.WindowsSkipped != full.Windows || st.Windows != full.Windows ||
		st.Records != len(tr.Records) || sst.Records == 0 || sst.SealedSegments == 0 {
		t.Fatalf("skipped: %d alerts, %d windows run, stats %+v, stream %+v — want every window only ingested",
			len(alerts), len(windows), st, sst)
	}
}

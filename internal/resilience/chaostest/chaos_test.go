package chaostest

import (
	"reflect"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/leakcheck"
	"microscope/internal/online"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
)

// soakWindows picks the soak size: the full ≥1000-window soak by default,
// a faster smoke under -short (make soak-smoke, pre-commit runs).
func soakWindows(t *testing.T) int {
	if testing.Short() {
		return 300
	}
	return 1100
}

// TestChaosSoak is the headline soak: ≥1000 windows under the full
// adversary — overload past the ladder rungs and the ring, corrupted and
// truncated transport segments, a header-dead segment, stage panics, and
// victim panics — all confined to the middle third of the stream, on the
// monitor config a tenant spec lowers to. The contract: the stream
// survives to the end, every loss is counted and exposed via obs, memory
// stays bounded, and windows outside the blast radius (plus margin) alert
// byte-identically to a fault-free baseline run.
func TestChaosSoak(t *testing.T) {
	leakcheck.Check(t)
	cfg := Config{Windows: soakWindows(t), Workers: 8}
	s := BuildStream(cfg)

	base := s.Run(nil)
	if base.Stats.Degraded != 0 || base.Stats.WindowsQuarantined != 0 || base.Stats.WindowsSkipped != 0 {
		t.Fatalf("baseline must run clean at Full: %+v", base.Stats)
	}
	// The margin must cover the worst single watermark jump the
	// plausibility guard allows (8 windows, see Run), plus boundary slop.
	const margin = 12
	outside := 0
	for w := range base.Fingerprints {
		if w < s.MidStart-margin || w >= s.MidEnd+margin {
			outside++
		}
	}
	if outside == 0 {
		t.Fatal("baseline raised no alerts outside the blast radius; the byte-identical comparison would be vacuous")
	}

	chaos := DefaultChaos(cfg.Seed)
	ch := s.Run(&chaos)
	// A window drop-oldest abandons is driven past as surely as one that
	// runs.
	if n := ch.Stats.Windows + ch.Stats.WindowsShed; n < cfg.Windows {
		t.Fatalf("drove %d windows, want >= %d", n, cfg.Windows)
	}

	// Every fault class must have actually fired and been counted.
	st := ch.Stats
	if st.Degraded == 0 {
		t.Errorf("overload never degraded a window: %+v", st)
	}
	if st.WindowsQuarantined == 0 {
		t.Errorf("stage panics never quarantined a window: %+v", st)
	}
	if st.ContainedPanics == 0 {
		t.Errorf("victim panics never contained: %+v", st)
	}
	if ch.Decode.Skipped == 0 {
		t.Errorf("segment corruption never cost a record: %+v", ch.Decode)
	}
	if st.ImplausibleDropped == 0 {
		t.Errorf("no corrupt future timestamp was caught by the watermark guard: %+v", st)
	}
	if st.RecordsShed == 0 || st.WindowsShed == 0 {
		t.Errorf("overload never filled the ring: %+v", st)
	}

	// The counts are exposed through the metrics registry, not just Stats.
	for _, m := range []string{
		"microscope_resilience_windows_quarantined_total",
		"microscope_resilience_windows_skipped_total",
		"microscope_diag_victim_panics_total",
	} {
		if v := ch.Registry.Counter(m).Value(); v == 0 {
			t.Errorf("metric %s not exposed (0)", m)
		}
	}

	// Memory ceiling: the monitor must not hoard the stream. 1 GiB is
	// generous headroom over the working set even under -race.
	const ceiling = 1 << 30
	if ch.PeakHeap >= ceiling {
		t.Errorf("peak heap %d exceeds ceiling %d", ch.PeakHeap, int64(ceiling))
	}

	// Healthy windows are byte-identical to the fault-free run.
	if diffs := CompareOutside(s, base, ch, margin); len(diffs) != 0 {
		t.Errorf("%d windows outside the blast radius diverged from baseline:", len(diffs))
		for i, d := range diffs {
			if i == 5 {
				t.Errorf("... and %d more", len(diffs)-5)
				break
			}
			t.Error(d)
		}
	}
}

// TestChaosSoakIncremental runs the soak for the state the stream carries
// across windows — sealed epoch segments and the diagnosis memo — with
// sequential diagnosis, so the memo is filled in window order. Same
// adversary, same contract: the stream survives to the end, every fault class
// fires, segments keep sealing and evicting under chaos, memory stays
// bounded, and windows outside the blast radius alert byte-identically to
// a fault-free run.
func TestChaosSoakIncremental(t *testing.T) {
	leakcheck.Check(t)
	cfg := Config{Windows: soakWindows(t), Workers: 1}
	s := BuildStream(cfg)

	base := s.Run(nil)
	if base.Stats.Degraded != 0 || base.Stats.WindowsQuarantined != 0 || base.Stats.WindowsSkipped != 0 {
		t.Fatalf("baseline must run clean at Full: %+v", base.Stats)
	}
	const margin = 12
	outside := 0
	for w := range base.Fingerprints {
		if w < s.MidStart-margin || w >= s.MidEnd+margin {
			outside++
		}
	}
	if outside == 0 {
		t.Fatal("baseline raised no alerts outside the blast radius")
	}

	chaos := DefaultChaos(cfg.Seed)
	ch := s.Run(&chaos)
	st := ch.Stats
	if n := st.Windows + st.WindowsShed; n < cfg.Windows {
		t.Fatalf("drove %d windows, want >= %d", n, cfg.Windows)
	}
	if st.Degraded == 0 || st.WindowsQuarantined == 0 || st.ContainedPanics == 0 {
		t.Errorf("chaos classes did not all fire through the carried stream: %+v", st)
	}
	// The streaming gauges must be live: segments seal and evict under
	// chaos, and eviction keeps the retained set bounded.
	if v := ch.Registry.Counter("microscope_stream_evicted_segments_total").Value(); v == 0 {
		t.Error("stream never evicted a segment across the soak")
	}
	if v := ch.Registry.Gauge("microscope_stream_retained_segments").Value(); v > 8 {
		t.Errorf("retained segments %d at EOF — eviction fell behind", v)
	}

	const ceiling = 1 << 30
	if ch.PeakHeap >= ceiling {
		t.Errorf("peak heap %d exceeds ceiling %d", ch.PeakHeap, int64(ceiling))
	}
	if diffs := CompareOutside(s, base, ch, margin); len(diffs) != 0 {
		t.Errorf("%d windows outside the blast radius diverged from baseline:", len(diffs))
		for i, d := range diffs {
			if i == 5 {
				t.Errorf("... and %d more", len(diffs)-5)
				break
			}
			t.Error(d)
		}
	}
}

// TestChaosDeterminism: the same chaos run is bit-identical across worker
// counts and across repeated runs — faults, panics, degradation, carried
// segments and carried memo all.
func TestChaosDeterminism(t *testing.T) {
	s := BuildStream(Config{Windows: 240})
	chaos := DefaultChaos(1)

	w1 := s.WithWorkers(1).Run(&chaos)
	w8 := s.WithWorkers(8).Run(&chaos)
	again := s.WithWorkers(8).Run(&chaos)
	if !reflect.DeepEqual(w1.Stats, w8.Stats) {
		t.Errorf("stats diverge across worker counts:\n  w1: %+v\n  w8: %+v", w1.Stats, w8.Stats)
	}
	if !reflect.DeepEqual(w1.Fingerprints, w8.Fingerprints) {
		t.Error("alert fingerprints diverge across worker counts")
	}
	if !reflect.DeepEqual(w8.Stats, again.Stats) || !reflect.DeepEqual(w8.Fingerprints, again.Fingerprints) {
		t.Error("identical chaos runs diverged: the harness is not deterministic")
	}
	if w1.Stats.WindowsQuarantined == 0 || w1.Stats.ContainedPanics == 0 {
		t.Errorf("determinism check ran without chaos actually firing: %+v", w1.Stats)
	}
}

// feedAll drives records through a monitor in transport-size chunks and
// returns the alerts.
func feedAll(m *online.Monitor, recs []collector.BatchRecord) []online.Alert {
	var out []online.Alert
	const chunk = 4096
	for i := 0; i < len(recs); i += chunk {
		end := i + chunk
		if end > len(recs) {
			end = len(recs)
		}
		out = append(out, m.Feed(recs[i:end])...)
	}
	return append(out, m.Flush()...)
}

// TestShedDropOldest: a ring half the size of one window forces constant
// shedding; the monitor must stay alive, bound its buffer, and count
// every shed window and record.
func TestShedDropOldest(t *testing.T) {
	cfg := Config{Windows: 40}
	s := BuildStream(cfg)
	peak := 0
	for _, n := range FlushCounts(s.Records, cfg) {
		if n > peak {
			peak = n
		}
	}
	cap := peak / 2
	m := online.New(s.Meta, online.Config{
		Window:  cfg.Window,
		Overlap: cfg.Overlap,
		Resilience: resilience.Config{
			RingCapacity: cap,
			Policy:       resilience.ShedDropOldest,
		},
	})
	feedAll(m, s.Records)
	st := m.Stats()
	if st.WindowsShed == 0 || st.RecordsShed == 0 {
		t.Fatalf("undersized ring never shed: %+v", st)
	}
	if m.Backlog() > cap {
		t.Fatalf("backlog %d exceeds ring capacity %d", m.Backlog(), cap)
	}
}

// TestShedRejectNew: under reject-new, arrivals are refused while the
// ring is full, no window is abandoned, and the buffer stays bounded.
func TestShedRejectNew(t *testing.T) {
	cfg := Config{Windows: 40}
	s := BuildStream(cfg)
	peak := 0
	for _, n := range FlushCounts(s.Records, cfg) {
		if n > peak {
			peak = n
		}
	}
	cap := peak / 2
	m := online.New(s.Meta, online.Config{
		Window:  cfg.Window,
		Overlap: cfg.Overlap,
		Resilience: resilience.Config{
			RingCapacity: cap,
			Policy:       resilience.ShedRejectNew,
		},
	})
	feedAll(m, s.Records)
	st := m.Stats()
	if st.RecordsShed == 0 {
		t.Fatalf("full ring never rejected an arrival: %+v", st)
	}
	if st.WindowsShed != 0 {
		t.Fatalf("reject-new abandoned whole windows: %+v", st)
	}
	if m.Backlog() > cap {
		t.Fatalf("backlog %d exceeds ring capacity %d", m.Backlog(), cap)
	}
}

// TestDeadlineSkipsWindows: an impossible per-window budget skips every
// non-empty window — counted, alert-free, stream alive.
func TestDeadlineSkipsWindows(t *testing.T) {
	cfg := Config{Windows: 20}
	s := BuildStream(cfg)
	m := online.New(s.Meta, online.Config{
		Window:     cfg.Window,
		Overlap:    cfg.Overlap,
		Resilience: resilience.Config{WindowDeadline: 1}, // 1ns: always blown
	})
	alerts := feedAll(m, s.Records)
	st := m.Stats()
	if len(alerts) != 0 {
		t.Fatalf("deadline-blown windows still alerted: %v", alerts)
	}
	if st.DeadlineExceeded == 0 || st.WindowsSkipped == 0 {
		t.Fatalf("blown deadlines not counted: %+v", st)
	}
	if m.LastDegradation() != resilience.Skipped {
		t.Fatalf("last degradation = %v, want skipped", m.LastDegradation())
	}
}

// TestMemoryWatermarkDegrades: a 2-byte heap limit, and the soft
// watermark at half of it, are always crossed, so every non-empty window
// must escalate.
func TestMemoryWatermarkDegrades(t *testing.T) {
	cfg := Config{Windows: 20}
	s := BuildStream(cfg)
	m := online.New(s.Meta, online.Config{
		Window:     cfg.Window,
		Overlap:    cfg.Overlap,
		Resilience: resilience.Config{MemHardBytes: 2},
	})
	feedAll(m, s.Records)
	st := m.Stats()
	if st.Degraded == 0 {
		t.Fatalf("crossed heap watermarks never degraded: %+v", st)
	}
	if m.LastDegradation() < resilience.NoPatterns {
		t.Fatalf("last degradation = %v, want >= no-patterns", m.LastDegradation())
	}
}

// TestBacklogEscalates: an arrival gap followed by a far-future record
// makes the flush loop see whole queued windows behind the watermark;
// the backlog rungs a bounded ring arms must escalate the ladder. The ring
// is far larger than any window here, so no record rung fires.
func TestBacklogEscalates(t *testing.T) {
	w := simtime.Duration(100 * simtime.Microsecond)
	m := online.New(collector.Meta{MaxBatch: 32}, online.Config{
		Window:  w,
		Overlap: w / 5, // the default (20ms) would dwarf this window and retain everything
		Resilience: resilience.Config{
			RingCapacity:  1 << 20,
			ContainPanics: true,
		},
	})
	var recs []collector.BatchRecord
	for i := 0; i < 50; i++ {
		recs = append(recs, collector.BatchRecord{
			Comp: "nf1", At: simtime.Time(i) * 2, Dir: collector.DirRead, IPIDs: []uint16{uint16(i)},
		})
	}
	// The straggler five windows out: window 0 flushes with ~5 windows of
	// watermark lead.
	recs = append(recs, collector.BatchRecord{
		Comp: "nf1", At: simtime.Time(5 * w), Dir: collector.DirRead, IPIDs: []uint16{99},
	})
	m.Feed(recs)
	if m.Stats().Degraded == 0 {
		t.Fatalf("backlog never escalated: %+v", m.Stats())
	}
	if m.LastDegradation() == resilience.Full {
		t.Fatal("window 0 ran at full despite 5-window backlog")
	}
}

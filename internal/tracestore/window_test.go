package tracestore_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// The window store's contract, held from outside the package so the
// pipeline can be driven too: however a stream got to a window — slides,
// skipped rungs, gaps, a changing interner — the store it lends must be,
// column for column, what emptying it and appending every retained segment
// gives (tracestore.VerifyWindow), and must diagnose byte-identically to
// the cold rebuild of the same window.

// winMs is the slide of the schedules below that do not set their own.
const winMs = simtime.Millisecond

// chainRecords simulates source → nat → fw for dur with interrupts at fw,
// which make victims, and shifts every IPID so the 16-bit counter wraps a
// few hundred packets in.
func chainRecords(t testing.TB, seed int64, dur simtime.Duration) (collector.Meta, []collector.BatchRecord) {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, seed,
		nfsim.ChainSpec{Name: "nat", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw", Kind: "fw", Rate: simtime.MPPS(0.8)},
	)
	iv := simtime.MPPS(0.3).Interval()
	var ems []traffic.Emission
	i := 0
	for tt := simtime.Time(0); tt < simtime.Time(dur); tt = tt.Add(iv) {
		ems = append(ems, traffic.Emission{
			At: tt,
			Flow: packet.FiveTuple{
				SrcIP: packet.IPFromOctets(10, byte(seed), 0, byte(i%40)), DstIP: packet.IPFromOctets(23, 0, 0, 1),
				SrcPort: uint16(1024 + i%40), DstPort: 80, Proto: packet.ProtoTCP,
			},
			Size: 64, Burst: -1,
		})
		i++
	}
	sim.LoadSchedule(&traffic.Schedule{Emissions: ems})
	for at := simtime.Time(3 * winMs); at < simtime.Time(dur); at += simtime.Time(7 * winMs) {
		sim.InjectInterrupt("fw", at, 500*simtime.Microsecond, "window-test")
	}
	sim.Run(simtime.Time(dur) + simtime.Time(2*winMs))
	tr := col.Trace(collector.MetaOf(sim))
	for ri := range tr.Records {
		ids := append([]uint16(nil), tr.Records[ri].IPIDs...)
		for k := range ids {
			ids[k] += 65200
		}
		tr.Records[ri].IPIDs = ids
	}
	return tr.Meta, tr.Records
}

// ghostRecords are records of components the meta does not declare:
// "ghost1" writes to "ghost2" early in [from, to), and only "ghost2" is
// heard from afterwards — so ghost1 is interned first, leaves the window
// first, and takes ghost2's component id with it.
func ghostRecords(from, to simtime.Time) []collector.BatchRecord {
	var out []collector.BatchRecord
	id := uint16(1)
	mid := from + (to-from)/3
	for at := from; at < to; at += simtime.Time(200 * simtime.Microsecond) {
		if at < mid {
			out = append(out, collector.BatchRecord{Comp: "ghost1", Queue: "ghost2.in", At: at, IPIDs: []uint16{id}, Dir: collector.DirWrite})
		}
		out = append(out, collector.BatchRecord{Comp: "ghost2", At: at + simtime.Time(20*simtime.Microsecond), IPIDs: []uint16{id}, Dir: collector.DirRead})
		id++
	}
	return out
}

// schedule is one way to walk a stream through a record sequence.
type schedule struct {
	name string
	// slide is the window W (0 = winMs) and overlap the retained O; until
	// cuts the record sequence short (0 = all of it).
	slide, overlap simtime.Duration
	until          simtime.Time
	thr            int
	// gaps are [from, to) stretches whose records are withheld.
	gaps [][2]simtime.Time
	// ghosts are [from, to) stretches with undeclared components.
	ghosts [][2]simtime.Time
	// skips runs 2–5 ingest-only advances (the Skipped rung) before most
	// windows, as the monitor does under overload and across stream gaps.
	skips bool
	// shuffle hands each advance its records out of time order.
	shuffle bool
}

func schedules() []schedule {
	W := simtime.Time(winMs)
	return []schedule{
		{name: "O=0", overlap: 0},
		{name: "O<W", overlap: 300 * simtime.Microsecond, gaps: [][2]simtime.Time{{9 * W, 10 * W}}},
		{name: "O=W", overlap: winMs, shuffle: true},
		// The serving tier's fine-paced shape: a span of twenty slides.
		{name: "O=19W", slide: winMs / 4, overlap: 19 * winMs / 4, until: 14 * W, gaps: [][2]simtime.Time{{9 * W, 9*W + W/4}}},
		{name: "O=19W/skips", slide: winMs / 4, overlap: 19 * winMs / 4, until: 20 * W, skips: true},
		{name: "gaps", overlap: 2 * winMs, gaps: [][2]simtime.Time{{8 * W, 9 * W}, {14 * W, 19 * W}, {26 * W, 27 * W}}},
		{name: "skips", overlap: 3 * winMs, skips: true, gaps: [][2]simtime.Time{{20 * W, 22 * W}}},
		{name: "ghosts", overlap: 2 * winMs, ghosts: [][2]simtime.Time{{6 * W, 9 * W}, {20 * W, 21 * W}}},
		{name: "ghosts/skips/shuffle", overlap: 4 * winMs, skips: true, shuffle: true, ghosts: [][2]simtime.Time{{5 * W, 12 * W}}},
		{name: "threshold", overlap: 2 * winMs, thr: 2, gaps: [][2]simtime.Time{{12 * W, 13 * W}}},
	}
}

// records applies the schedule's gaps and ghosts to the base sequence.
func (sc schedule) records(base []collector.BatchRecord) []collector.BatchRecord {
	var out []collector.BatchRecord
	for _, r := range base {
		if sc.until > 0 && r.At > sc.until {
			break
		}
		held := false
		for _, g := range sc.gaps {
			held = held || (r.At >= g[0] && r.At < g[1])
		}
		if !held {
			out = append(out, r)
		}
	}
	for _, g := range sc.ghosts {
		out = append(out, ghostRecords(g[0], g[1])...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// windowTally says which assembly paths a run went through.
type windowTally struct {
	windows, inPlace, fromScratch, afterDrop int
}

// runSchedule walks a stream through sc and checks every diagnosed window.
// onWindow (optional) runs before each window with the window's number and
// may arm a fault; a window that then fails must say so by returning an
// error, and the next one is checked like any other.
func runSchedule(t *testing.T, sc schedule, meta collector.Meta, base []collector.BatchRecord, workers int,
	cfgMod func(*pipeline.Config), onWindow func(n int, ss *pipeline.StreamState)) windowTally {
	t.Helper()
	recs := sc.records(base)
	slide := sc.slide
	if slide == 0 {
		slide = winMs
	}
	cfg := pipeline.Config{SkipPatterns: true,
		Diagnosis: core.Config{MaxVictims: 60, QueueThreshold: sc.thr, Workers: workers}}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	ss, err := pipeline.NewStreamState(meta, slide, sc.overlap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tracestore.NewRecorder(ss.Stream())
	rng := rand.New(rand.NewSource(int64(len(sc.name)) + 17))
	ctx := context.Background()
	last := recs[len(recs)-1].At
	from, skipsLeft := 0, 0
	var tally windowTally
	var prevFirst int
	for end := simtime.Time(slide); end <= last+simtime.Time(slide); end += simtime.Time(slide) {
		to := from
		for to < len(recs) && recs[to].At <= end {
			to++
		}
		chunk := recs[from:to]
		from = to
		if sc.shuffle {
			chunk = append([]collector.BatchRecord(nil), chunk...)
			rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		}
		if skipsLeft > 0 {
			skipsLeft--
			if _, err := ss.RunWindow(ctx, end, resilience.Skipped, chunk); err != nil {
				t.Fatalf("%s end=%v skipped: %v", sc.name, end, err)
			}
			continue
		}
		if onWindow != nil {
			onWindow(tally.windows, ss)
		}
		tally.windows++
		inc, err := ss.RunWindow(ctx, end, resilience.Full, chunk)
		if err != nil {
			if onWindow == nil {
				t.Fatalf("%s end=%v: %v", sc.name, end, err)
			}
			continue // the armed fault; the stream must recover by itself
		}
		// How the store is assembled does not depend on the worker count;
		// the wide pass is there for the diagnosis over it.
		if workers <= 4 {
			if err := tracestore.VerifyWindow(ss.Stream()); err != nil {
				t.Fatalf("%s end=%v workers=%d: %v", sc.name, end, workers, err)
			}
		}
		refCfg := cfg
		refCfg.Diagnosis.ChaosHook, refCfg.Diagnosis.ContainPanics = nil, false
		ref, err := pipeline.RunStoreContext(ctx, rec.Rebuild(), refCfg)
		if err != nil {
			t.Fatal(err)
		}
		if fi, fr := inc.Fingerprint(), ref.Fingerprint(); fi != fr {
			t.Fatalf("%s end=%v workers=%d: window and its rebuild diagnose differently\n--- window ---\n%s\n--- rebuild ---\n%s",
				sc.name, end, workers, fi, fr)
		}
		first := inc.Store.FirstJourney()
		switch {
		case first == 0:
			tally.fromScratch++ // or nothing has left yet
		default:
			tally.inPlace++
			if first > prevFirst {
				tally.afterDrop++
			}
		}
		prevFirst = first
		if sc.skips && rng.Intn(2) == 0 {
			skipsLeft = 1 + rng.Intn(4) // 2–5 advances to the next window
		}
	}
	return tally
}

func TestWindowIncrementalEqualsFullAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 50 ms of a chain; skipped in -short")
	}
	meta, base := chainRecords(t, 11, 50*winMs)
	for _, sc := range schedules() {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				tally := runSchedule(t, sc, meta, base, workers, nil, nil)
				if tally.windows < 8 {
					t.Fatalf("only %d windows diagnosed: %+v", tally.windows, tally)
				}
				// The schedule must have slid the window in place, rows
				// leaving from the front — except without overlap, where
				// nothing of a window is in the next.
				if sc.overlap > 0 && tally.afterDrop < 3 {
					t.Fatalf("window store rarely updated in place: %+v", tally)
				}
				// An undeclared component leaving the window changes the
				// interner: a from-scratch assembly after in-place ones.
				if len(sc.ghosts) > 0 && tally.fromScratch < 2 {
					t.Fatalf("ghost components came and went without a from-scratch window: %+v", tally)
				}
			})
		}
	}
}

// TestWindowContainment: a fault contained in the merge stage — before the
// store is touched (the chaos hook) or half-way through an append — loses
// that window only. The next one is assembled from what the stream
// retains and is byte-identical to its rebuild.
func TestWindowContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 40 ms of a chain; skipped in -short")
	}
	meta, base := chainRecords(t, 12, 40*winMs)
	sc := schedule{name: "containment", overlap: 4 * winMs}
	faultAt := map[int]bool{6: true, 7: true, 15: true, 29: true}

	t.Run("stage:merge", func(t *testing.T) {
		armed := false
		tally := runSchedule(t, sc, meta, base, 4, func(cfg *pipeline.Config) {
			cfg.Diagnosis.ContainPanics = true
			cfg.Diagnosis.ChaosHook = func(scope string) {
				if armed && scope == "stage:merge" {
					armed = false
					panic("chaos: merge stage")
				}
			}
		}, func(n int, _ *pipeline.StreamState) { armed = faultAt[n] })
		if tally.inPlace+tally.fromScratch != tally.windows-len(faultAt) {
			t.Fatalf("%d windows lost to %d faults: %+v", tally.windows-tally.inPlace-tally.fromScratch, len(faultAt), tally)
		}
	})

	t.Run("mid-append", func(t *testing.T) {
		tally := runSchedule(t, sc, meta, base, 4, func(cfg *pipeline.Config) {
			cfg.Diagnosis.ContainPanics = true
		}, func(n int, ss *pipeline.StreamState) {
			armed := faultAt[n]
			ss.Stream().SetAppendHook(func() {
				if armed {
					armed = false
					panic("chaos: half an append")
				}
			})
		})
		if tally.inPlace+tally.fromScratch != tally.windows-len(faultAt) {
			t.Fatalf("%d windows lost to %d faults: %+v", tally.windows-tally.inPlace-tally.fromScratch, len(faultAt), tally)
		}
		// A torn store is rebuilt, not patched: each fault is followed by a
		// from-scratch window.
		if tally.fromScratch < len(faultAt) {
			t.Fatalf("torn window store was not reassembled from scratch: %+v", tally)
		}
	})
}

// TestWindowCapacityBounded: compaction happens in place, and a column
// never holds more than twice the rows of its largest window (plus the
// slide that triggered a growth).
func TestWindowCapacityBounded(t *testing.T) {
	meta, base := chainRecords(t, 13, 60*winMs)
	ss, err := pipeline.NewStreamState(meta, winMs, 4*winMs, pipeline.Config{Diagnosis: core.Config{Workers: 1}, SkipPatterns: true})
	if err != nil {
		t.Fatal(err)
	}
	from := 0
	peak := 0.0
	for end := simtime.Time(winMs); end <= simtime.Time(60*winMs); end += simtime.Time(winMs) {
		to := from
		for to < len(base) && base[to].At <= end {
			to++
		}
		if _, err := ss.RunWindow(context.Background(), end, resilience.Full, base[from:to]); err != nil {
			t.Fatal(err)
		}
		from = to
		if end > simtime.Time(20*winMs) {
			if r := ss.Stream().WindowCapRatio(200); r > peak {
				peak = r
			}
		}
	}
	// Live rows vary a little from window to window, so the ratio against
	// the current window can exceed 2 by that variation; 2.5 still fails a
	// column that grows without compacting (which doubles every span).
	if peak == 0 || peak > 2.5 {
		t.Fatalf("a window column's capacity is %.2fx its live rows (0 = nothing measured)", peak)
	}
}

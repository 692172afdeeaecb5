package pipeline_test

import (
	"context"
	"fmt"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// The incremental-vs-full-rebuild equivalence suite: for every window, the
// incremental path (carried stream state, preset index, carried memo) must
// produce a byte-identical Result fingerprint to a cold rebuild of the
// same window with a fresh engine — across seeds, worker counts, and
// degradation rungs. This is the contract that keeps the streaming path
// honest; it runs under -race via make stream-check.

// slideWindows drives both paths over the trace and compares fingerprints
// per window. rung is applied to both sides.
func slideWindows(t *testing.T, tr *collector.Trace, w, o simtime.Duration, workers int, rung resilience.Level) {
	t.Helper()
	cfg := pipeline.Config{
		Diagnosis: core.Config{MaxVictims: 200, Workers: workers},
		Patterns:  patterns.Config{Workers: workers},
	}
	ss, err := pipeline.NewStreamState(tr.Meta, w, o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tracestore.NewRecorder(ss.Stream())
	var last simtime.Time
	for _, r := range tr.Records {
		if r.At > last {
			last = r.At
		}
	}
	ctx := context.Background()
	windows := 0
	for end := simtime.Time(w); end <= last+simtime.Time(w); end += simtime.Time(w) {
		// The monitor hands Advance its pending slice (retained overlap +
		// new records); passing the whole prefix is equivalent — sealed
		// records are ignored by watermark.
		var recs []collector.BatchRecord
		for _, r := range tr.Records {
			if r.At <= end {
				recs = append(recs, r)
			}
		}
		inc, err := ss.RunWindow(ctx, end, rung, recs)
		if err != nil {
			t.Fatalf("window %d incremental: %v", end, err)
		}
		if rung >= resilience.Skipped {
			if inc.Degradation != rung {
				t.Fatalf("window %d: degradation %v, want %v", end, inc.Degradation, rung)
			}
			continue
		}
		ref, err := pipeline.RunStoreContext(ctx, rec.Rebuild(), pipeline.Config{
			Diagnosis: core.Config{MaxVictims: 200, Workers: workers},
			Patterns:  patterns.Config{Workers: workers},
			Degrade:   rung,
		})
		if err != nil {
			t.Fatalf("window %d reference: %v", end, err)
		}
		fi, fr := inc.Fingerprint(), ref.Fingerprint()
		if fi != fr {
			t.Fatalf("window ending %d: incremental and full-rebuild reports differ\n--- incremental ---\n%s\n--- full rebuild ---\n%s", end, fi, fr)
		}
		windows++
	}
	if rung < resilience.Skipped && windows < 3 {
		t.Fatalf("only %d comparable windows — trace too short for the suite", windows)
	}
}

func TestIncrementalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 16-NF topology; skipped in -short")
	}
	dur := 30 * simtime.Millisecond
	if raceEnabled {
		dur = 15 * simtime.Millisecond
	}
	for _, seed := range []int64{1, 2, 3} {
		tr := buildTrace(seed, dur)
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				slideWindows(t, tr, 5*simtime.Millisecond, simtime.Millisecond, workers, resilience.Full)
			})
		}
	}
}

// TestIncrementalEquivalenceDegraded extends the contract to the ladder:
// every rung must stay byte-identical to a cold rebuild at that rung, and
// Skipped must still advance the stream.
func TestIncrementalEquivalenceDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 16-NF topology; skipped in -short")
	}
	dur := 20 * simtime.Millisecond
	if raceEnabled {
		dur = 10 * simtime.Millisecond
	}
	tr := buildTrace(7, dur)
	for _, rung := range []resilience.Level{resilience.NoPatterns, resilience.VictimsOnly, resilience.Skipped} {
		t.Run(rung.String(), func(t *testing.T) {
			slideWindows(t, tr, 5*simtime.Millisecond, simtime.Millisecond, 4, rung)
		})
	}
}

// chainMeta is a minimal source→a→b deployment for hand-placed records.
func chainMeta() collector.Meta {
	return collector.Meta{
		Components: []collector.ComponentMeta{
			{Name: "source", Kind: "source"},
			{Name: "a", Kind: "nf", PeakRate: simtime.MPPS(1)},
			{Name: "b", Kind: "nf", PeakRate: simtime.MPPS(1), Egress: true},
		},
		Edges: []collector.Edge{
			{From: "source", To: "a"},
			{From: "a", To: "b"},
		},
		MaxBatch: 32,
	}
}

// packetAt emits one packet's full record chain starting at t: source
// write → a read/write → b read/deliver. ipid distinguishes packets.
func packetAt(t simtime.Time, ipid uint16) []collector.BatchRecord {
	d := simtime.Time(10 * simtime.Microsecond)
	return []collector.BatchRecord{
		{Comp: "source", Queue: "a.in", At: t, IPIDs: []uint16{ipid}, Dir: collector.DirWrite},
		{Comp: "a", At: t + d, IPIDs: []uint16{ipid}, Dir: collector.DirRead},
		{Comp: "a", Queue: "b.in", At: t + 2*d, IPIDs: []uint16{ipid}, Dir: collector.DirWrite},
		{Comp: "b", At: t + 3*d, IPIDs: []uint16{ipid}, Dir: collector.DirRead},
		{Comp: "b", At: t + 4*d, IPIDs: []uint16{ipid}, Dir: collector.DirDeliver},
	}
}

// runEdgeCase drives one hand-built record schedule through both paths
// over the given window ends and asserts per-window fingerprint equality.
func runEdgeCase(t *testing.T, recs []collector.BatchRecord, ends []simtime.Time, w, o simtime.Duration) {
	t.Helper()
	meta := chainMeta()
	cfg := pipeline.Config{Diagnosis: core.Config{MaxVictims: 50, Workers: 1}, Patterns: patterns.Config{Workers: 1}}
	ss, err := pipeline.NewStreamState(meta, w, o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tracestore.NewRecorder(ss.Stream())
	ctx := context.Background()
	for _, end := range ends {
		var pend []collector.BatchRecord
		for _, r := range recs {
			if r.At <= end {
				pend = append(pend, r)
			}
		}
		inc, err := ss.RunWindow(ctx, end, resilience.Full, pend)
		if err != nil {
			t.Fatalf("end=%d incremental: %v", end, err)
		}
		ref, err := pipeline.RunStoreContext(ctx, rec.Rebuild(), cfg)
		if err != nil {
			t.Fatalf("end=%d reference: %v", end, err)
		}
		if fi, fr := inc.Fingerprint(), ref.Fingerprint(); fi != fr {
			t.Fatalf("end=%d: reports differ\n--- incremental ---\n%s\n--- full rebuild ---\n%s", end, fi, fr)
		}
	}
}

// TestStreamEdgeBoundaries: records placed exactly on flush boundaries
// (k·W, belongs to the window it closes) and retain boundaries (k·W−O,
// belongs right), under sliding eviction.
func TestStreamEdgeBoundaries(t *testing.T) {
	w, o := simtime.Duration(simtime.Millisecond), 200*simtime.Microsecond
	W, O := simtime.Time(w), simtime.Time(o)
	var recs []collector.BatchRecord
	ipid := uint16(1)
	var ends []simtime.Time
	for k := simtime.Time(1); k <= 8; k++ {
		recs = append(recs, packetAt(k*W-5*simtime.Time(simtime.Microsecond)*10, ipid)...) // chain ends exactly at k·W
		ipid++
		recs = append(recs, packetAt(k*W-O, ipid)...) // starts exactly on a retain boundary
		ipid++
		recs = append(recs, packetAt(k*W-O-simtime.Time(40*simtime.Microsecond), ipid)...) // straddles the retain boundary
		ipid++
		ends = append(ends, k*W)
	}
	runEdgeCase(t, recs, ends, w, o)
}

// TestStreamWatermarkJump: the flush end leaps several windows forward (a
// watermark resync after a stream gap); eviction must retire everything
// below the new horizon in one step and reports must stay equivalent.
func TestStreamWatermarkJump(t *testing.T) {
	w, o := simtime.Duration(simtime.Millisecond), 200*simtime.Microsecond
	W := simtime.Time(w)
	var recs []collector.BatchRecord
	for k := simtime.Time(0); k < 3; k++ {
		recs = append(recs, packetAt(k*W+W/3, uint16(k+1))...)
	}
	// Gap, then traffic resumes far beyond the horizon.
	for k := simtime.Time(9); k < 12; k++ {
		recs = append(recs, packetAt(k*W+W/3, uint16(k+1))...)
	}
	ends := []simtime.Time{1 * W, 2 * W, 3 * W, 10 * W, 11 * W, 12 * W}
	runEdgeCase(t, recs, ends, w, o)
}

// TestStreamGapLargerThanHorizon: an empty stretch longer than the
// retained horizon empties the stream entirely; the next window must
// reconstruct from scratch without residue.
func TestStreamGapLargerThanHorizon(t *testing.T) {
	w, o := simtime.Duration(simtime.Millisecond), 200*simtime.Microsecond
	W := simtime.Time(w)
	recs := packetAt(W/2, 1)
	recs = append(recs, packetAt(20*W+W/2, 2)...)
	var ends []simtime.Time
	for k := simtime.Time(1); k <= 21; k++ {
		ends = append(ends, k*W)
	}
	meta := chainMeta()
	cfg := pipeline.Config{Diagnosis: core.Config{MaxVictims: 50, Workers: 1}, Patterns: patterns.Config{Workers: 1}}
	ss, err := pipeline.NewStreamState(meta, w, o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tracestore.NewRecorder(ss.Stream())
	ctx := context.Background()
	for _, end := range ends {
		var pend []collector.BatchRecord
		for _, r := range recs {
			if r.At <= end {
				pend = append(pend, r)
			}
		}
		inc, err := ss.RunWindow(ctx, end, resilience.Full, pend)
		if err != nil {
			t.Fatalf("end=%d: %v", end, err)
		}
		ref, err := pipeline.RunStoreContext(ctx, rec.Rebuild(), cfg)
		if err != nil {
			t.Fatalf("end=%d reference: %v", end, err)
		}
		if fi, fr := inc.Fingerprint(), ref.Fingerprint(); fi != fr {
			t.Fatalf("end=%d: reports differ\n%s\n---\n%s", end, fi, fr)
		}
		if end >= 10*W && end < 20*W {
			if st := ss.Stats(); st.RetainedSegments != 0 {
				t.Fatalf("end=%d: %d segments retained across an empty horizon, want 0", end, st.RetainedSegments)
			}
		}
	}
}

// TestStreamSteadyStateBounded: across 300+ windows of steady synthetic
// traffic, retained bytes and segment count must plateau — the eviction
// path must not leak history.
func TestStreamSteadyStateBounded(t *testing.T) {
	w, o := simtime.Duration(simtime.Millisecond), 200*simtime.Microsecond
	W := simtime.Time(w)
	meta := chainMeta()
	cfg := pipeline.Config{Diagnosis: core.Config{MaxVictims: 50, Workers: 1}, SkipPatterns: true}
	ss, err := pipeline.NewStreamState(meta, w, o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var peakEarly, peakLate int64
	const windows = 320
	for k := simtime.Time(1); k <= windows; k++ {
		end := k * W
		var recs []collector.BatchRecord
		for i := 0; i < 4; i++ {
			recs = append(recs, packetAt(end-W+W/8+simtime.Time(i)*W/8, uint16(i+1))...)
		}
		if _, err := ss.RunWindow(ctx, end, resilience.Full, recs); err != nil {
			t.Fatal(err)
		}
		st := ss.Stats()
		if st.RetainedSegments > 8 {
			t.Fatalf("window %d: %d segments retained — eviction is leaking", k, st.RetainedSegments)
		}
		if k <= 20 {
			if st.RetainedBytes > peakEarly {
				peakEarly = st.RetainedBytes
			}
		} else if st.RetainedBytes > peakLate {
			peakLate = st.RetainedBytes
		}
	}
	if peakLate > peakEarly {
		t.Fatalf("retained bytes grew after warm-up: early peak %d, late peak %d", peakEarly, peakLate)
	}
	st := ss.Stats()
	if st.Records == 0 || st.Journeys == 0 {
		t.Fatal("cumulative stream accounting never moved")
	}
}

// TestStreamMonotoneHealth: the stream's cumulative recon counters are
// seal-time totals — they never decrease, including across a watermark
// jump (the online monitor's monotone Unmatched/Quarantined fix).
func TestStreamMonotoneHealth(t *testing.T) {
	w, o := simtime.Duration(simtime.Millisecond), 200*simtime.Microsecond
	W := simtime.Time(w)
	meta := chainMeta()
	ss, err := pipeline.NewStreamState(meta, w, o, pipeline.Config{Diagnosis: core.Config{Workers: 1}, Patterns: patterns.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// An arrival whose dequeue carries a different IPID leaves an
	// unmatched read (matchQueue needs at least one arrival to engage).
	orphan := func(t0 simtime.Time, id uint16) []collector.BatchRecord {
		return []collector.BatchRecord{
			{Comp: "source", Queue: "a.in", At: t0, IPIDs: []uint16{id}, Dir: collector.DirWrite},
			{Comp: "a", At: t0 + simtime.Time(10*simtime.Microsecond), IPIDs: []uint16{id + 1000}, Dir: collector.DirRead},
		}
	}
	prev := 0
	ends := []simtime.Time{1 * W, 2 * W, 9 * W, 10 * W}
	for i, end := range ends {
		recs := orphan(end-W/2, uint16(i+1))
		if _, err := ss.RunWindow(ctx, end, resilience.Full, recs); err != nil {
			t.Fatal(err)
		}
		um := ss.Stats().Recon.Unmatched
		if um < prev {
			t.Fatalf("cumulative unmatched went backwards: %d -> %d at end=%d", prev, um, end)
		}
		if um == prev {
			t.Fatalf("orphan read at end=%d not counted (still %d)", end, um)
		}
		prev = um
	}
}

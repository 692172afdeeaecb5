package tracestore

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"microscope/internal/collector"
	"microscope/internal/faults"
	"microscope/internal/simtime"
	"microscope/internal/stats"
)

// storeDiff names the first field in which two made stores differ (""
// when none): interner, arrivals, reads, drain times, journeys with their
// hops, reconstruction counters, summaries, health.
func storeDiff(a, b *Store) string {
	if !slices.Equal(a.names, b.names) {
		return fmt.Sprintf("names: %v vs %v", a.names, b.names)
	}
	for id := range a.views {
		va, vb := a.views[id], b.views[id]
		if !slices.Equal(va.Arrivals, vb.Arrivals) {
			return fmt.Sprintf("%s: arrivals differ (%d vs %d)", va.Name, len(va.Arrivals), len(vb.Arrivals))
		}
		if !slices.Equal(va.Reads, vb.Reads) {
			return fmt.Sprintf("%s: reads differ (%d vs %d)", va.Name, len(va.Reads), len(vb.Reads))
		}
		if !slices.Equal(va.pidx.drainTimes, vb.pidx.drainTimes) {
			return fmt.Sprintf("%s: drain times differ", va.Name)
		}
	}
	if len(a.Journeys) != len(b.Journeys) {
		return fmt.Sprintf("journeys: %d vs %d", len(a.Journeys), len(b.Journeys))
	}
	for i := range a.Journeys {
		if !reflect.DeepEqual(a.Journeys[i], b.Journeys[i]) {
			return fmt.Sprintf("journey %d: %+v vs %+v", i, a.Journeys[i], b.Journeys[i])
		}
	}
	if a.recon != b.recon {
		return fmt.Sprintf("recon: %+v vs %+v", a.recon, b.recon)
	}
	if !slices.Equal(a.moments, b.moments) || !slices.Equal(a.latRun, b.latRun) || a.traceEnd != b.traceEnd {
		return "summaries differ"
	}
	if ha, hb := a.Health(), b.Health(); ha != hb {
		return fmt.Sprintf("health: %+v vs %+v", ha, hb)
	}
	return ""
}

// wrapTrace is a source→nf chain whose IPIDs run 65 530 … 65 535, 0 … and
// repeat every 12 packets, in batches of three: the counter wraps inside
// the trace and every IPID value recurs, so the per-IPID FIFOs hold
// several entries each.
func wrapTrace(packets int) *collector.Trace {
	tr := &collector.Trace{Meta: chainMetaTS()}
	for p := 0; p < packets; p += 3 {
		var ids []uint16
		for k := p; k < p+3 && k < packets; k++ {
			ids = append(ids, uint16(65530+k%12))
		}
		at := simtime.Time(100 + 40*p)
		tr.Records = append(tr.Records,
			collector.BatchRecord{Comp: collector.SourceName, Queue: "nf.in", At: at, Dir: collector.DirWrite, IPIDs: ids},
			collector.BatchRecord{Comp: "nf", Queue: "nf.in", At: at + 30, Dir: collector.DirRead, IPIDs: ids},
			collector.BatchRecord{Comp: "nf", At: at + 60, Dir: collector.DirDeliver, IPIDs: ids},
		)
	}
	return tr
}

// TestSealScratchReuseEquivalence: the stream seals every segment through
// one long-lived scratch and recycled store shells; a cold Build gets a
// fresh scratch and a fresh store. Both are one call of derive, and
// nothing may carry over from one call to the next: traces of different
// shapes — clean, with duplicated, reordered, truncated and lost records,
// an undeclared component, IPIDs that wrap and recur — made in sequence
// through one scratch come out field for field as each does made alone.
func TestSealScratchReuseEquivalence(t *testing.T) {
	sched := cbr(simtime.MPPS(0.4), simtime.Duration(2*simtime.Millisecond), 23)
	_, chainSt := runChain(t, sched, simtime.MPPS(1), simtime.MPPS(0.9), simtime.MPPS(0.8))
	chain := chainSt.Trace
	eval := evalTrace(t, 3, simtime.MPPS(1.2), simtime.Duration(simtime.Millisecond))

	var traces []*collector.Trace
	add := func(tr *collector.Trace, cfgs ...faults.Config) {
		traces = append(traces, tr)
		for _, cfg := range cfgs {
			damaged, _ := faults.Inject(tr, cfg)
			traces = append(traces, damaged)
		}
	}
	add(chain,
		faults.Config{Seed: 1, DupRate: 0.05},
		faults.Config{Seed: 2, ReorderRate: 0.05},
		faults.Config{Seed: 3, TruncateRate: 0.1},
		faults.Config{Seed: 4, DropRate: 0.03, BurstDropRate: 0.005},
	)
	add(eval,
		faults.Config{Seed: 5, DupRate: 0.02, ReorderRate: 0.02, TruncateRate: 0.02, DropRate: 0.01},
	)
	rogue := *chain
	rogue.Records = append(append([]collector.BatchRecord(nil), chain.Records[:200]...),
		collector.BatchRecord{Comp: "rogue", Queue: "ghost.in", At: chain.Records[199].At, Dir: collector.DirWrite, IPIDs: []uint16{9, 9}})
	add(&rogue)
	add(wrapTrace(600))
	add(&collector.Trace{Meta: chain.Meta}) // no records at all
	// Largest first, smallest last, then the lot again in reverse: every
	// table is reused both shrinking and growing.
	for i := len(traces) - 1; i >= 0; i-- {
		traces = append(traces, traces[i])
	}

	sc := &scratch{}
	shells := make(map[string]*Store) // one recycled store per deployment
	for i, tr := range traces {
		key := fmt.Sprint(tr.Meta.Components)
		shell := shells[key]
		if shell == nil {
			shell = &Store{}
			shells[key] = shell
		}
		if i == len(traces)/2 {
			// Force the per-IPID head table's stamp space to run out
			// mid-sequence.
			sc.reserveIPIDs(0)
			sc.ipidNext = math.MaxInt32 - 7
		}
		shell.derive(sortedTrace(tr), sc)
		cold := Build(tr)
		if d := storeDiff(shell, cold); d != "" {
			t.Fatalf("trace %d (%d records): shared scratch vs fresh: %s", i, len(tr.Records), d)
		}
	}
}

// TestThreadInternalMatchesSort checks the merge-and-chains linking of
// reads to writes and delivers against the definition it replaced: a
// stable sort of the out entries by time, and per-IPID FIFOs of read
// entries held in maps.
func TestThreadInternalMatchesSort(t *testing.T) {
	for _, tr := range []*collector.Trace{
		wrapTrace(600),
		evalTrace(t, 9, simtime.MPPS(1.2), simtime.Duration(simtime.Millisecond)),
	} {
		s, sc := &Store{}, &scratch{}
		s.build(sortedTrace(tr), sc)
		s.indexReads(sc)
		for _, v := range s.views {
			s.threadInternal(sc, v)
			want := threadBySort(&sc.views[v.ID])
			if !slices.Equal(sc.outOfRead[v.ID], want) {
				t.Fatalf("%s: outOfRead differs from the sort-based linking", v.Name)
			}
		}
	}
}

// threadBySort is threadInternal as first written: sort.SliceStable over
// writes-then-delivers, map-held FIFOs.
func threadBySort(c *viewScratch) []int32 {
	type out struct {
		at   simtime.Time
		ipid uint16
		ref  int32
	}
	var outs []out
	for i, e := range c.writes {
		outs = append(outs, out{e.At, e.IPID, int32(i)})
	}
	for i, e := range c.delivers {
		outs = append(outs, out{e.At, e.IPID, deliverRef(i)})
	}
	// Insertion sort: stable, and independent of package sort.
	for i := 1; i < len(outs); i++ {
		for j := i; j > 0 && outs[j].at < outs[j-1].at; j-- {
			outs[j], outs[j-1] = outs[j-1], outs[j]
		}
	}
	buckets := make(map[uint16][]int)
	for k, e := range c.reads {
		buckets[e.IPID] = append(buckets[e.IPID], k)
	}
	heads := make(map[uint16]int)
	res := fillNeg(make([]int32, len(c.reads)))
	for _, o := range outs {
		lst, h := buckets[o.ipid], heads[o.ipid]
		if h < len(lst) && c.reads[lst[h]].At <= o.at {
			res[lst[h]] = o.ref
			heads[o.ipid] = h + 1
		}
	}
	return res
}

// windowRecords returns the records of tr in (lo, hi], shifted by d.
func windowRecords(tr *collector.Trace, lo, hi simtime.Time, d simtime.Duration) []collector.BatchRecord {
	var out []collector.BatchRecord
	for _, r := range tr.Records {
		if r.At > lo && r.At <= hi {
			r.At = r.At.Add(d)
			out = append(out, r)
		}
	}
	return out
}

// segmentDiff compares the sealed segments of two streams.
func segmentDiff(a, b *Stream) string {
	if len(a.segs) != len(b.segs) {
		return fmt.Sprintf("%d vs %d segments", len(a.segs), len(b.segs))
	}
	for i := range a.segs {
		ga, gb := a.segs[i], b.segs[i]
		if ga.lo != gb.lo || ga.hi != gb.hi || ga.point != gb.point {
			return fmt.Sprintf("segment %d: [%d,%d] point=%v vs [%d,%d] point=%v", i, ga.lo, ga.hi, ga.point, gb.lo, gb.hi, gb.point)
		}
		if na, nb := ga.st.Health().Records, gb.st.Health().Records; na != nb {
			return fmt.Sprintf("segment %d: sealed from %d vs %d records", i, na, nb)
		}
		if d := storeDiff(ga.st, gb.st); d != "" {
			return fmt.Sprintf("segment %d: %s", i, d)
		}
		if ga.bytes != gb.bytes {
			return fmt.Sprintf("segment %d: size estimates %d vs %d", i, ga.bytes, gb.bytes)
		}
	}
	return ""
}

// TestAdvanceSpansEqualFlat: Advance skips the records at or before its
// seal watermark. A window fed with any tail of the already-sealed window
// before its own records — from none of them to all, the records at
// exactly the watermark included — seals the same segments with the same
// contents, stats and merged window as the window fed its records alone.
func TestAdvanceSpansEqualFlat(t *testing.T) {
	sched := cbr(simtime.MPPS(0.05), simtime.Duration(3*simtime.Millisecond), 5)
	_, st := runChain(t, sched, simtime.MPPS(1), simtime.MPPS(0.9), simtime.MPPS(0.8))
	tr := st.Trace
	const w, o = simtime.Millisecond, 250 * simtime.Microsecond
	first := windowRecords(tr, -1, simtime.Time(w), 0)
	second := windowRecords(tr, simtime.Time(w), simtime.Time(2*w), 0)
	if len(second) < 40 {
		t.Fatalf("second window has only %d records", len(second))
	}
	// A record at exactly the watermark is sealed with the first window.
	edge := first[len(first)-1]
	edge.At = simtime.Time(w)
	first = append(first, edge)
	newStream := func() (*Stream, *Recorder) {
		s, err := NewStream(tr.Meta, StreamConfig{Window: w, Overlap: o})
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(s)
		s.Advance(simtime.Time(w), first)
		return s, rec
	}
	flat, flatRec := newStream()
	flatStats := flat.Advance(simtime.Time(2*w), second)
	if flatStats.SealedSegments < 2 {
		t.Fatalf("window sealed %d segments; want a grid boundary inside it", flatStats.SealedSegments)
	}
	flatWin, _ := flat.Window(simtime.Time(2 * w))
	for i := 0; i <= len(first); i++ {
		fed, fedRec := newStream()
		stats := fed.Advance(simtime.Time(2*w), append(slices.Clip(first[i:]), second...))
		if !reflect.DeepEqual(stats, flatStats) {
			t.Fatalf("sealed tail from %d: stats %+v, flat %+v", i, stats, flatStats)
		}
		if d := segmentDiff(fed, flat); d != "" {
			t.Fatalf("sealed tail from %d: %s", i, d)
		}
		if !reflect.DeepEqual(fedRec.runs, flatRec.runs) {
			t.Fatalf("sealed tail from %d: the segments were sealed from different records", i)
		}
		win, _ := fed.Window(simtime.Time(2 * w))
		if d := storeDiff(win, flatWin); d != "" {
			t.Fatalf("sealed tail from %d: merged window: %s", i, d)
		}
	}
}

// TestAdvanceSteadyStateAllocs: once the shells and the scratch have grown
// to size, sealing allocates a small constant per segment — nothing per
// record. The same count holds with eight times the records per segment.
func TestAdvanceSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped in -short mode")
	}
	const w, o = 2 * simtime.Millisecond, simtime.Millisecond
	var perSegment [2]float64
	var records [2]int
	for i, rate := range []float64{0.1, 0.8} {
		tr := evalTrace(t, 1, simtime.MPPS(rate), simtime.Duration(w))
		seg := windowRecords(tr, 0, simtime.Time(w), 0)
		s, err := NewStream(tr.Meta, StreamConfig{Window: w, Overlap: o})
		if err != nil {
			t.Fatal(err)
		}
		var recs []collector.BatchRecord
		k, sealed := simtime.Time(0), 0
		advance := func() {
			recs = shiftedRecords(recs, seg, simtime.Duration(k)*w)
			k++
			sealed += s.Advance(k*simtime.Time(w), recs).SealedSegments
		}
		// Warm up past the retention horizon, so shells come back off
		// the free list.
		for s.Stats().EvictedTotal < 4 {
			advance()
		}
		sealed = 0
		avg := testing.AllocsPerRun(20, advance)
		perSegment[i] = avg / (float64(sealed) / 21) // AllocsPerRun adds one warm-up run
		records[i] = len(seg)
		t.Logf("%d records per window, %d segments per advance: %.2f allocs per Advance", len(seg), sealed/21, avg)
		if perSegment[i] > 8 {
			t.Errorf("%d records per window: %.1f allocs per sealed segment (%.0f per Advance), budget 8", len(seg), perSegment[i], avg)
		}
	}
	if records[1] < 6*records[0] {
		t.Fatalf("record counts %v: want the second about eight times the first", records)
	}
	if perSegment[1] > perSegment[0]+1 {
		t.Errorf("allocations grow with the segment: %.1f per segment at %d records, %.1f at %d", perSegment[0], records[0], perSegment[1], records[1])
	}
}

// TestDeriveSummariesMatchScan holds the summaries derive freezes to the
// test-only scan VerifyWindow also holds every window store to
// (checkByScan) — here over cold Builds of clean, damaged, unsorted,
// wrapping and empty traces.
func TestDeriveSummariesMatchScan(t *testing.T) {
	eval := evalTrace(t, 6, simtime.MPPS(1.2), simtime.Duration(simtime.Millisecond))
	damaged, _ := faults.Inject(eval, faults.Config{Seed: 8, DupRate: 0.02, ReorderRate: 0.05, TruncateRate: 0.02, DropRate: 0.01})
	for i, tr := range []*collector.Trace{eval, damaged, wrapTrace(600), {Meta: eval.Meta}} {
		if err := checkByScan(Build(tr)); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
	}
}

// TestSegmentSizeBytes pins a sealed segment's retained-size estimate to
// the sum, over every slice the segment retains, of its length times its
// element size: each table its store keeps. The records it was sealed from,
// and their IPID and tuple payloads, are not retained and not counted.
func TestSegmentSizeBytes(t *testing.T) {
	tr := evalTrace(t, 2, simtime.MPPS(0.8), simtime.Duration(2*simtime.Millisecond))
	s, err := NewStream(tr.Meta, StreamConfig{Window: simtime.Millisecond, Overlap: simtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Advance(simtime.Time(2*simtime.Millisecond), tr.Records)
	if len(s.segs) < 2 {
		t.Fatalf("%d segments retained; want several", len(s.segs))
	}
	var total int64
	for i, g := range s.segs {
		gs := g.st
		want := int64(len(gs.hopArena))*int64(unsafe.Sizeof(JourneyHop{})) +
			int64(len(gs.Journeys))*int64(unsafe.Sizeof(Journey{})) +
			int64(len(gs.moments))*int64(unsafe.Sizeof(stats.Moments{})) +
			int64(len(gs.latRun))*int64(unsafe.Sizeof(float64(0)))
		for _, v := range gs.views {
			want += int64(len(v.Arrivals))*int64(unsafe.Sizeof(Arrival{})) +
				int64(len(v.Reads))*int64(unsafe.Sizeof(ReadEvent{})) +
				int64(len(v.pidx.drainTimes))*int64(unsafe.Sizeof(simtime.Time(0)))
		}
		if g.bytes != want {
			t.Fatalf("segment %d: size estimate %d B, its slices hold %d B", i, g.bytes, want)
		}
		total += want
	}
	if st.RetainedBytes != total {
		t.Fatalf("RetainedBytes %d, the segments hold %d", st.RetainedBytes, total)
	}
}

package tracestore

import (
	"testing"

	"microscope/internal/collector"
	"microscope/internal/simtime"
)

// Grid geometry used across these tests: W=1000, O=200 (arbitrary units).
const (
	segW = simtime.Duration(1000)
	segO = simtime.Duration(200)
)

func newTestStream(t *testing.T, o simtime.Duration) *Stream {
	t.Helper()
	s, err := NewStream(collector.Meta{MaxBatch: 32}, StreamConfig{Window: segW, Overlap: o})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamConfigValidation: the grid cannot express a nonpositive
// window or a negative overlap; any overlap length is fine, including
// overlap >= window (a long analysis span at a short reporting cadence).
func TestStreamConfigValidation(t *testing.T) {
	for _, cfg := range []StreamConfig{
		{Window: 0, Overlap: 0},
		{Window: -5, Overlap: 0},
		{Window: 100, Overlap: -1},
	} {
		if _, err := NewStream(collector.Meta{}, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	for _, cfg := range []StreamConfig{
		{Window: 100, Overlap: 0},
		{Window: 100, Overlap: 100},
		{Window: 100, Overlap: 450},
	} {
		if _, err := NewStream(collector.Meta{}, cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

// TestSegOfGrid: every timestamp maps to exactly one segment, segments
// tile the line without gaps, and boundary ownership is typed: a flush
// boundary k·W belongs to the segment it closes (left), a retain boundary
// k·W−O to the segment it opens (right), and coinciding boundaries form
// point segments.
func TestSegOfGrid(t *testing.T) {
	s := newTestStream(t, segO)
	type span struct {
		lo, hi simtime.Time
		point  bool
	}
	at := func(tt simtime.Time) span {
		lo, hi, point := s.segOf(tt)
		return span{lo, hi, point}
	}
	// t=0 is special-cased as a dual boundary: a point segment, so the
	// first window can still evict it on the normal whole-segment schedule.
	if g := at(0); !g.point || g.lo != 0 || g.hi != 0 {
		t.Fatalf("segOf(0) = %+v, want point [0,0]", g)
	}
	// Interior of the first body segment.
	if g := at(500); g.point || g.lo != 0 || g.hi != 800 {
		t.Fatalf("segOf(500) = %+v, want (0,800]", g)
	}
	// Retain boundary 800 = 1000-200 belongs right.
	if g := at(800); g.point || g.lo != 800 || g.hi != 1000 {
		t.Fatalf("segOf(800) = %+v, want [800,1000)", g)
	}
	// Flush boundary 1000 belongs left.
	if g := at(1000); g.point || g.lo != 800 || g.hi != 1000 {
		t.Fatalf("segOf(1000) = %+v, want (800,1000]", g)
	}
	// Just past a flush boundary: next body segment up to the next retain
	// boundary 1800.
	if g := at(1001); g.point || g.lo != 1000 || g.hi != 1800 {
		t.Fatalf("segOf(1001) = %+v, want (1000,1800]", g)
	}

	// Tiling: consecutive timestamps never skip a segment, and every
	// segment contains its own time.
	prev := at(1)
	for tt := simtime.Time(2); tt < 5000; tt++ {
		g := at(tt)
		if g != prev {
			if g.lo != prev.hi {
				t.Fatalf("gap in grid at %d: %+v then %+v", tt, prev, g)
			}
			prev = g
		}
		if g.lo > tt || g.hi < tt {
			t.Fatalf("segOf(%d) = %+v does not contain its time", tt, g)
		}
	}
}

// TestSegOfGridLongOverlap: overlap beyond one window reuses the same
// W-periodic boundary lattice — only the retention horizon deepens. With
// O=4200 and W=1000 the retain boundaries sit at k·1000−4200 ≡ 800 (mod
// 1000), exactly where O=200 puts them.
func TestSegOfGridLongOverlap(t *testing.T) {
	long := newTestStream(t, 4*segW+segO)
	short := newTestStream(t, segO)
	for tt := simtime.Time(0); tt < 5000; tt++ {
		llo, lhi, lp := long.segOf(tt)
		slo, shi, sp := short.segOf(tt)
		if llo != slo || lhi != shi || lp != sp {
			t.Fatalf("segOf(%d): O=%d gives [%d,%d] point=%v, O=%d gives [%d,%d] point=%v",
				tt, 4*segW+segO, llo, lhi, lp, segO, slo, shi, sp)
		}
	}
	// Whole-window-multiple overlap: retain boundaries coincide with flush
	// boundaries, so every boundary is a dual point segment.
	dual := newTestStream(t, 3*segW)
	if lo, hi, point := dual.segOf(2000); !point || lo != 2000 || hi != 2000 {
		t.Fatalf("O=3W flush boundary: [%d,%d] point=%v, want point [2000,2000]", lo, hi, point)
	}
	if lo, hi, point := dual.segOf(2500); point || lo != 2000 || hi != 3000 {
		t.Fatalf("O=3W body: [%d,%d] point=%v, want (2000,3000)", lo, hi, point)
	}
}

// TestStreamLongOverlapRetention: with O=4W+O' the retained horizon spans
// 5+ windows and Window and the recorder's rebuild still agree.
func TestStreamLongOverlapRetention(t *testing.T) {
	s, err := NewStream(chainMetaTS(), StreamConfig{Window: segW, Overlap: 4*segW + segO})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(s)
	var recs []collector.BatchRecord
	for i := simtime.Time(0); i < 100; i++ {
		recs = append(recs, chainRecs(i*100+3, uint16(i+1))...)
	}
	for end := simtime.Time(1000); end <= 10_000; end += 1000 {
		var pend []collector.BatchRecord
		for _, r := range recs {
			if r.At <= end {
				pend = append(pend, r)
			}
		}
		s.Advance(end, pend)
		start := end - simtime.Time(segW+4*segW+segO)
		for _, g := range s.segs {
			if keep := g.hi > start || (g.point && g.lo >= start); !keep {
				t.Fatalf("end=%d: segment (%d,%d] below horizon %d retained", end, g.lo, g.hi, start)
			}
		}
		merged, _ := s.Window(end)
		cold := rec.Rebuild()
		if mh, ch := merged.Health(), cold.Health(); mh != ch {
			t.Fatalf("end=%d: health diverged: %+v vs %+v", end, mh, ch)
		}
		if len(merged.Journeys) != len(cold.Journeys) {
			t.Fatalf("end=%d: journeys %d vs %d", end, len(merged.Journeys), len(cold.Journeys))
		}
	}
	if st := s.Stats(); st.EvictedTotal == 0 {
		t.Fatalf("long-overlap stream never evicted: %+v", st)
	}
}

// TestSegOfGridZeroOverlap: with O=0 the grid degenerates to whole windows
// with point segments at the flush boundaries.
func TestSegOfGridZeroOverlap(t *testing.T) {
	s := newTestStream(t, 0)
	lo, hi, point := s.segOf(1000)
	if !point || lo != 1000 || hi != 1000 {
		t.Fatalf("flush boundary with O=0: [%d,%d] point=%v, want point [1000,1000]", lo, hi, point)
	}
	lo, hi, point = s.segOf(999)
	if point || lo != 0 || hi != 1000 {
		t.Fatalf("body with O=0: [%d,%d] point=%v", lo, hi, point)
	}
}

// chainRecs emits one packet (write→read) at t on the src→nf chain.
func chainRecs(tt simtime.Time, id uint16) []collector.BatchRecord {
	return []collector.BatchRecord{
		{Comp: collector.SourceName, Queue: "nf.in", At: tt, IPIDs: []uint16{id}, Dir: collector.DirWrite},
		{Comp: "nf", At: tt + 5, IPIDs: []uint16{id}, Dir: collector.DirRead},
	}
}

func chainMetaTS() collector.Meta {
	return collector.Meta{
		Components: []collector.ComponentMeta{
			{Name: collector.SourceName, Kind: "source"},
			{Name: "nf", Kind: "nf", PeakRate: simtime.PPS(1e6), Egress: true},
		},
		Edges:    []collector.Edge{{From: collector.SourceName, To: "nf"}},
		MaxBatch: 32,
	}
}

// TestStreamEvictionKeepRule: after each advance, only segments
// intersecting the retained horizon (end−W−O, end] survive, with the
// boundary-typed keep rule (a point segment exactly at the horizon start
// stays; a body segment ending there goes).
func TestStreamEvictionKeepRule(t *testing.T) {
	s, err := NewStream(chainMetaTS(), StreamConfig{Window: segW, Overlap: segO})
	if err != nil {
		t.Fatal(err)
	}
	var recs []collector.BatchRecord
	for k := simtime.Time(0); k < 10; k++ {
		recs = append(recs, chainRecs(k*1000+500, uint16(k+1))...)
	}
	for end := simtime.Time(1000); end <= 10_000; end += 1000 {
		var pend []collector.BatchRecord
		for _, r := range recs {
			if r.At <= end {
				pend = append(pend, r)
			}
		}
		s.Advance(end, pend)
		start := end - simtime.Time(segW+segO)
		for _, g := range s.segs {
			if g.point {
				if g.lo < start {
					t.Fatalf("end=%d: point segment [%d] below horizon %d", end, g.lo, start)
				}
			} else if g.hi <= start {
				t.Fatalf("end=%d: segment (%d,%d] wholly below horizon %d retained", end, g.lo, g.hi, start)
			}
			if g.st == nil {
				t.Fatalf("end=%d: retained segment (%d,%d] has no store", end, g.lo, g.hi)
			}
		}
		st := s.Stats()
		if st.RetainedSegments != len(s.segs) {
			t.Fatalf("stats segment count %d != %d", st.RetainedSegments, len(s.segs))
		}
		if st.RetainedBytes <= 0 {
			t.Fatalf("retained bytes not accounted: %+v", st)
		}
	}
	// Every record was sealed exactly once, and history was retired.
	st := s.Stats()
	if st.EvictedTotal == 0 || st.Records != int64(len(recs)) {
		t.Fatalf("cumulative accounting: %+v (want %d records)", st, len(recs))
	}
}

// TestStreamSegmentReuseResetsEpoch: shells recycled through the free list
// come back with a strictly newer generation epoch and no stale data.
// Epochs are never shared between two distinct live shells.
func TestStreamSegmentReuseResetsEpoch(t *testing.T) {
	s, err := NewStream(chainMetaTS(), StreamConfig{Window: segW, Overlap: segO})
	if err != nil {
		t.Fatal(err)
	}
	epochOwner := make(map[uint64]*Segment) // every epoch ever observed → its shell
	lastEpoch := make(map[*Segment]uint64)  // shell → epoch at last sighting
	freed := make(map[*Segment]bool)
	reused := 0
	for end := simtime.Time(1000); end <= 20_000; end += 1000 {
		s.Advance(end, chainRecs(end-500, uint16(end/1000)))
		for _, g := range s.segs {
			if owner, ok := epochOwner[g.epoch]; ok && owner != g {
				t.Fatalf("epoch %d stamped on two distinct shells", g.epoch)
			}
			epochOwner[g.epoch] = g
			if freed[g] {
				// Shell came back from the free list: fresh epoch, only the
				// newly sealed records — nothing leaked across reuse.
				if g.epoch <= lastEpoch[g] {
					t.Fatalf("recycled shell kept stale epoch %d (was %d)", g.epoch, lastEpoch[g])
				}
				if n := g.st.Health().Records; n != 2 {
					t.Fatalf("recycled shell holds a store of %d records, want 2 (stale data?)", n)
				}
				delete(freed, g)
				reused++
			}
			lastEpoch[g] = g.epoch
		}
		for _, g := range s.free {
			if g.st != nil {
				t.Fatalf("freed shell (epoch %d) still holds a store", g.epoch)
			}
			freed[g] = true
		}
	}
	if reused == 0 {
		t.Fatal("free list never recycled a shell — eviction is not reusing memory")
	}
}

// TestStreamWindowMatchesRebuild: the merged window store with its preset
// index answers the same queries as a cold rebuild of the same retained
// records — health, trace end, latency quantiles, per-NF delay moments,
// journey population.
func TestStreamWindowMatchesRebuild(t *testing.T) {
	s, err := NewStream(chainMetaTS(), StreamConfig{Window: segW, Overlap: segO})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(s)
	var recs []collector.BatchRecord
	for i := simtime.Time(0); i < 40; i++ {
		recs = append(recs, chainRecs(i*100+3, uint16(i+1))...)
	}
	for end := simtime.Time(1000); end <= 4000; end += 1000 {
		var pend []collector.BatchRecord
		for _, r := range recs {
			if r.At <= end {
				pend = append(pend, r)
			}
		}
		s.Advance(end, pend)
		merged, _ := s.Window(end)
		cold := rec.Rebuild()

		if mh, ch := merged.Health(), cold.Health(); mh != ch {
			t.Fatalf("end=%d: health diverged: %+v vs %+v", end, mh, ch)
		}
		if merged.TraceEnd() != cold.TraceEnd() {
			t.Fatalf("end=%d: trace end %d vs %d", end, merged.TraceEnd(), cold.TraceEnd())
		}
		for _, p := range []float64{50, 90, 99} {
			if mp, cp := merged.LatencyPercentile(p), cold.LatencyPercentile(p); mp != cp {
				t.Fatalf("end=%d: p%v latency %v vs %v", end, p, mp, cp)
			}
		}
		ms, cs := merged.DelayStats("nf"), cold.DelayStats("nf")
		if *ms != *cs {
			t.Fatalf("end=%d: delay moments diverged: %+v vs %+v", end, *ms, *cs)
		}
		if len(merged.Journeys) != len(cold.Journeys) {
			t.Fatalf("end=%d: journeys %d vs %d", end, len(merged.Journeys), len(cold.Journeys))
		}
	}
}

// TestStreamAdvanceFiltersSealed: records at or below the watermark are
// ignored (the monitor's retained overlap re-presents them every flush),
// and records beyond end are deferred to their own window, not lost.
func TestStreamAdvanceFiltersSealed(t *testing.T) {
	s, err := NewStream(chainMetaTS(), StreamConfig{Window: segW, Overlap: segO})
	if err != nil {
		t.Fatal(err)
	}
	recs := chainRecs(500, 1)
	s.Advance(1000, recs)
	n := s.Stats().Records
	future := chainRecs(2500, 2)
	s.Advance(2000, append(append([]collector.BatchRecord{}, recs...), future...))
	if got := s.Stats().Records; got != n {
		t.Fatalf("sealed records re-ingested: %d -> %d", n, got)
	}
	s.Advance(3000, future)
	if got := s.Stats().Records; got != n+int64(len(future)) {
		t.Fatalf("deferred records lost: %d, want %d", got, n+int64(len(future)))
	}
}

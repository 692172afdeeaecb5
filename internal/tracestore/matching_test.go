package tracestore

import (
	"math/rand"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// twoUpstreamMeta declares u1, u2 -> c with c as egress.
func twoUpstreamMeta() collector.Meta {
	return collector.Meta{
		MaxBatch: 32,
		Components: []collector.ComponentMeta{
			{Name: "source", Kind: "source"},
			{Name: "u1", Kind: "nat", PeakRate: simtime.MPPS(1)},
			{Name: "u2", Kind: "nat", PeakRate: simtime.MPPS(1)},
			{Name: "c", Kind: "vpn", PeakRate: simtime.MPPS(1), Egress: true},
		},
		Edges: []collector.Edge{
			{From: "source", To: "u1"}, {From: "source", To: "u2"},
			{From: "u1", To: "c"}, {From: "u2", To: "c"},
		},
	}
}

// TestLookaheadResolvesIPIDCollision hand-builds the ambiguous case: both
// upstream heads carry IPID 5 at the same instant, and only one choice
// keeps the subsequent dequeue stream consistent. The order side channel
// (§5, Figure 9) must pick it.
func TestLookaheadResolvesIPIDCollision(t *testing.T) {
	recs := []collector.BatchRecord{
		// u1 writes 5 then 8; u2 writes 5 — all at t=10.
		{Comp: "u1", Queue: "c.in", At: 10, Dir: collector.DirWrite, IPIDs: []uint16{5, 8}},
		{Comp: "u2", Queue: "c.in", At: 10, Dir: collector.DirWrite, IPIDs: []uint16{5}},
		// c dequeues [5, 8, 5]: the first 5 MUST be u1's, else 8 would
		// precede u1's 5 in u1's FIFO.
		{Comp: "c", Queue: "c.in", At: 20, Dir: collector.DirRead, IPIDs: []uint16{5, 8, 5}},
	}
	st := Build(&collector.Trace{Meta: twoUpstreamMeta(), Records: recs})
	if st.ReconStats().Unmatched != 0 {
		t.Fatalf("unmatched: %+v", st.ReconStats())
	}
	if st.ReconStats().LookaheadFix == 0 {
		t.Fatalf("lookahead path not exercised: %+v", st.ReconStats())
	}
	// Verify the assignment via arrivals: the first dequeue (index 0)
	// must be u1's packet.
	v := st.View("c")
	// Arrival 0 = u1's 5, arrival 1 = u1's 8, arrival 2 = u2's 5.
	if st.CompName(v.Arrivals[0].From) != "u1" || st.CompName(v.Arrivals[2].From) != "u2" {
		t.Fatalf("arrival layout unexpected: %+v", v.Arrivals)
	}
}

// TestReorderSearchRecoversDeepMatch: the dequeued IPID is not at any
// upstream head (same-instant interleave put it deeper); the bounded
// search must find it rather than dropping the packet.
func TestReorderSearchRecoversDeepMatch(t *testing.T) {
	recs := []collector.BatchRecord{
		{Comp: "u1", Queue: "c.in", At: 10, Dir: collector.DirWrite, IPIDs: []uint16{5, 7}},
		{Comp: "u2", Queue: "c.in", At: 10, Dir: collector.DirWrite, IPIDs: []uint16{6}},
		// Dequeue order starts with 7 — impossible under strict FIFO
		// given the recorded write order, as if the two same-instant
		// writes interleaved differently than recorded.
		{Comp: "c", Queue: "c.in", At: 20, Dir: collector.DirRead, IPIDs: []uint16{7, 5, 6}},
	}
	st := Build(&collector.Trace{Meta: twoUpstreamMeta(), Records: recs})
	if st.ReconStats().Reordered == 0 {
		t.Fatalf("reorder path not exercised: %+v", st.ReconStats())
	}
	if st.ReconStats().Unmatched != 0 {
		t.Fatalf("unmatched: %+v", st.ReconStats())
	}
}

// TestUnmatchedDequeue: a dequeue whose IPID appears nowhere upstream must
// be counted, not crash.
func TestUnmatchedDequeue(t *testing.T) {
	recs := []collector.BatchRecord{
		{Comp: "u1", Queue: "c.in", At: 10, Dir: collector.DirWrite, IPIDs: []uint16{5}},
		{Comp: "c", Queue: "c.in", At: 20, Dir: collector.DirRead, IPIDs: []uint16{5, 99}},
	}
	st := Build(&collector.Trace{Meta: twoUpstreamMeta(), Records: recs})
	if st.ReconStats().Unmatched != 1 {
		t.Fatalf("want 1 unmatched: %+v", st.ReconStats())
	}
}

// TestStoreStringAndAccessors covers the small introspection helpers.
func TestStoreStringAndAccessors(t *testing.T) {
	recs := []collector.BatchRecord{
		{Comp: "u1", Queue: "c.in", At: 10, Dir: collector.DirWrite, IPIDs: []uint16{5}},
		{Comp: "c", Queue: "c.in", At: 20, Dir: collector.DirRead, IPIDs: []uint16{5}},
		{Comp: "c", At: 25, Dir: collector.DirDeliver, IPIDs: []uint16{5},
			Tuples: []packet.FiveTuple{{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}}},
	}
	st := Build(&collector.Trace{Meta: twoUpstreamMeta(), Records: recs})
	if got := st.String(); got == "" {
		t.Error("empty String")
	}
	if st.PeakRate("u1") != simtime.MPPS(1) || st.PeakRate("ghost") != 0 {
		t.Error("PeakRate")
	}
	if st.KindOf("c") != "vpn" || st.KindOf("ghost") != "ghost" {
		t.Error("KindOf")
	}
	if st.QueueLenAt("c", 30) != 0 {
		t.Error("queue should be empty after read")
	}
	if st.QueueLenAt("c", 15) != 1 {
		t.Errorf("queue should hold 1 at t=15, got %d", st.QueueLenAt("c", 15))
	}
}

// TestReconstructionSurvivesRecordLoss drops random records from a healthy
// trace (a lossy collection channel): reconstruction must not panic, must
// keep per-journey causal ordering, and should only degrade in proportion
// to the damage.
func TestReconstructionSurvivesRecordLoss(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 3,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.9)},
	)
	sched := cbr(simtime.MPPS(0.3), simtime.Duration(3*simtime.Millisecond), 9)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	tr := col.Trace(collector.MetaOf(sim))

	rng := rand.New(rand.NewSource(7))
	for _, dropFrac := range []float64{0.01, 0.1, 0.3} {
		var damaged []collector.BatchRecord
		for _, r := range tr.Records {
			if rng.Float64() < dropFrac {
				continue
			}
			damaged = append(damaged, r)
		}
		st := Build(&collector.Trace{Meta: tr.Meta, Records: damaged}) // must not panic
		for i := range st.Journeys {
			j := &st.Journeys[i]
			prev := j.EmittedAt
			for h := range j.Hops {
				if j.Hops[h].ArriveAt < prev {
					t.Fatalf("drop=%.2f: causal order broken", dropFrac)
				}
				if j.Hops[h].DepartAt > 0 {
					prev = j.Hops[h].DepartAt
				}
			}
		}
		// Diagnosis over the damaged store must also hold up.
		qp := st.QueuingPeriodAt("fw1", simtime.Time(simtime.Millisecond))
		if qp != nil && qp.NIn-qp.NProc < -int(float64(sched.Len())*dropFrac) {
			t.Fatalf("drop=%.2f: wildly negative queue: %d", dropFrac, qp.NIn-qp.NProc)
		}
	}
}

// TestReconstructionSurvivesDuplicatedRecords doubles random records (an
// at-least-once collection channel): again no panics, no causal inversions.
func TestReconstructionSurvivesDuplicatedRecords(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 3, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	sched := cbr(simtime.MPPS(0.3), simtime.Duration(2*simtime.Millisecond), 5)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	tr := col.Trace(collector.MetaOf(sim))

	rng := rand.New(rand.NewSource(9))
	var damaged []collector.BatchRecord
	for _, r := range tr.Records {
		damaged = append(damaged, r)
		if rng.Float64() < 0.05 {
			damaged = append(damaged, r) // duplicate
		}
	}
	st := Build(&collector.Trace{Meta: tr.Meta, Records: damaged}) // must not panic
	if len(st.Journeys) == 0 {
		t.Fatal("no journeys after duplication")
	}
}

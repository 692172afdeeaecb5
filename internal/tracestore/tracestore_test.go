package tracestore

import (
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

func flow(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.IPFromOctets(10, 0, byte(i>>8), byte(i)),
		DstIP:   packet.IPFromOctets(23, 9, 8, 7),
		SrcPort: uint16(1024 + i%60000),
		DstPort: 4433,
		Proto:   packet.ProtoUDP,
	}
}

// runChain builds a 3-NF chain, replays sched, and returns the sim and the
// reconstructed store.
func runChain(t *testing.T, sched *traffic.Schedule, rates ...simtime.Rate) (*nfsim.Sim, *Store) {
	t.Helper()
	col := collector.New(collector.Config{})
	specs := []nfsim.ChainSpec{
		{Name: "nat1", Kind: "nat", Rate: rates[0]},
		{Name: "fw1", Kind: "fw", Rate: rates[1]},
		{Name: "vpn1", Kind: "vpn", Rate: rates[2]},
	}
	sim := nfsim.BuildChain(col, 17, specs...)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(200 * simtime.Millisecond))
	tr := col.Trace(collector.MetaOf(sim))
	st := Build(tr)
	return sim, st
}

func cbr(rate simtime.Rate, dur simtime.Duration, nflows int) *traffic.Schedule {
	iv := rate.Interval()
	var ems []traffic.Emission
	i := 0
	for t := simtime.Time(0); t < simtime.Time(dur); t = t.Add(iv) {
		ems = append(ems, traffic.Emission{At: t, Flow: flow(i % nflows), Size: 64, Burst: -1})
		i++
	}
	return &traffic.Schedule{Emissions: ems}
}

func TestJourneysMatchGroundTruth(t *testing.T) {
	sched := cbr(simtime.MPPS(0.4), simtime.Duration(3*simtime.Millisecond), 23)
	sim, st := runChain(t, sched, simtime.MPPS(1), simtime.MPPS(0.9), simtime.MPPS(0.8))

	truth := sim.Packets()
	if len(st.Journeys) != len(truth) {
		t.Fatalf("journeys: got %d, want %d", len(st.Journeys), len(truth))
	}
	exact := 0
	for i, p := range truth {
		j := &st.Journeys[i]
		if j.IPID != p.IPID {
			t.Fatalf("journey %d ipid %d vs truth %d", i, j.IPID, p.IPID)
		}
		if p.Dropped == "" && !j.Delivered {
			continue // in-flight at trace end is acceptable
		}
		if !j.Delivered {
			continue
		}
		if j.Tuple != p.Flow {
			t.Fatalf("journey %d tuple mismatch: %v vs %v", i, j.Tuple, p.Flow)
		}
		if len(j.Hops) != len(p.Hops) {
			t.Fatalf("journey %d hop count %d vs %d", i, len(j.Hops), len(p.Hops))
		}
		ok := true
		for h := range j.Hops {
			if st.CompName(j.Hops[h].Comp) != p.Hops[h].Node ||
				j.Hops[h].ArriveAt != p.Hops[h].EnqueueAt ||
				j.Hops[h].ReadAt != p.Hops[h].DequeueAt ||
				j.Hops[h].DepartAt != p.Hops[h].DepartAt {
				ok = false
			}
		}
		if ok {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(truth)); frac < 0.99 {
		t.Errorf("exact journey reconstruction: %.4f, want >= 0.99 (%s)", frac, st.String())
	}
	if st.ReconStats().Unmatched > len(truth)/100 {
		t.Errorf("too many unmatched: %+v", st.ReconStats())
	}
}

func TestJourneyLatencyMatchesTruth(t *testing.T) {
	sched := cbr(simtime.MPPS(0.3), simtime.Duration(2*simtime.Millisecond), 7)
	sim, st := runChain(t, sched, simtime.MPPS(1), simtime.MPPS(0.9), simtime.MPPS(0.8))
	for i, p := range sim.Packets() {
		j := &st.Journeys[i]
		if !j.Delivered {
			continue
		}
		if j.Latency() != p.Latency() {
			t.Fatalf("packet %d latency %v vs truth %v", i, j.Latency(), p.Latency())
		}
		if j.EmittedAt != p.CreatedAt {
			t.Fatalf("packet %d emit time %v vs %v", i, j.EmittedAt, p.CreatedAt)
		}
	}
}

func TestReconstructionWithIPIDCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario test; skipped in -short mode")
	}
	// Force IPID wraparound during the run: >65536 packets in flight
	// history with only 23 flows. 0.5 Mpps * 200 ms = 100k packets.
	sched := cbr(simtime.MPPS(0.5), simtime.Duration(200*simtime.Millisecond), 23)
	sim, st := runChain(t, sched, simtime.MPPS(1), simtime.MPPS(0.9), simtime.MPPS(0.8))
	truth := sim.Packets()
	delivered, correct := 0, 0
	for i, p := range truth {
		j := &st.Journeys[i]
		if !j.Delivered || p.Dropped != "" {
			continue
		}
		delivered++
		if j.Tuple == p.Flow && len(j.Hops) == len(p.Hops) {
			correct++
		}
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if frac := float64(correct) / float64(delivered); frac < 0.98 {
		t.Errorf("correct journeys under IPID wrap: %.4f (%s)", frac, st.String())
	}
}

func TestJourneysOnDAGTopology(t *testing.T) {
	col := collector.New(collector.Config{})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: 5})
	mix := traffic.NewMix(traffic.MixConfig{Flows: 300, Seed: 6})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate:     simtime.MPPS(1.0),
		Duration: simtime.Duration(4 * simtime.Millisecond),
		Seed:     7,
	})
	topo.Sim.LoadSchedule(sched)
	topo.Sim.Run(simtime.Time(100 * simtime.Millisecond))
	st := Build(col.Trace(collector.MetaOf(topo.Sim)))

	truth := topo.Sim.Packets()
	if len(st.Journeys) != len(truth) {
		t.Fatalf("journeys: %d vs %d", len(st.Journeys), len(truth))
	}
	pathsOK, delivered := 0, 0
	for i, p := range truth {
		j := &st.Journeys[i]
		if !j.Delivered {
			continue
		}
		delivered++
		want := p.Path()
		if len(j.Hops) == len(want) {
			same := true
			for h := range want {
				if st.CompName(j.Hops[h].Comp) != want[h] {
					same = false
					break
				}
			}
			if same {
				pathsOK++
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no delivered packets")
	}
	if frac := float64(pathsOK) / float64(delivered); frac < 0.98 {
		t.Errorf("DAG path reconstruction: %.4f (%s)", frac, st.String())
	}
}

func TestQueuingPeriodBasics(t *testing.T) {
	// Overload a slow NF with a burst so a queue builds, then verify the
	// reconstructed queuing period matches the paper's invariant:
	// n_i - n_p == queue length at arrival.
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 3, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.5)})
	sched := cbr(simtime.MPPS(0.2), simtime.Duration(3*simtime.Millisecond), 11)
	sched.InjectBurst(traffic.BurstSpec{
		ID: 1, At: simtime.Time(simtime.Millisecond), Flow: flow(2), Count: 600,
	})
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	st := Build(col.Trace(collector.MetaOf(sim)))

	// The victim: a packet arriving shortly after the burst.
	victimAt := simtime.Time(simtime.Duration(1300) * simtime.Microsecond)
	var victim *packet.Packet
	for _, p := range sim.Packets() {
		h := p.HopAt("fw1")
		if h != nil && h.EnqueueAt >= victimAt && p.Burst < 0 {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Fatal("no victim found")
	}
	h := victim.HopAt("fw1")
	qp := st.QueuingPeriodAt("fw1", h.EnqueueAt)
	if qp == nil {
		t.Fatal("no queuing period")
	}
	if qp.Start > h.EnqueueAt || qp.End != h.EnqueueAt {
		t.Errorf("period [%v, %v] vs arrival %v", qp.Start, qp.End, h.EnqueueAt)
	}
	// The burst began at 1ms; the period should reach back at least to
	// the burst (the queue hasn't drained since).
	if qp.Start > simtime.Time(simtime.Duration(1020)*simtime.Microsecond) {
		t.Errorf("period start %v should reach back to the burst at ~1ms", qp.Start)
	}
	if qp.NIn <= qp.NProc {
		t.Errorf("queue should be building: n_i=%d n_p=%d", qp.NIn, qp.NProc)
	}
	if got := qp.NIn - qp.NProc; got <= 0 || got > 1024 {
		t.Errorf("queue length out of range: %d", got)
	}
	if qp.T() <= 0 {
		t.Errorf("period length %v", qp.T())
	}
	// PreSet range sanity.
	v := st.View("fw1")
	if qp.ArrivalLast-qp.ArrivalFirst+1 != qp.NIn {
		t.Errorf("arrival range %d..%d vs NIn %d", qp.ArrivalFirst, qp.ArrivalLast, qp.NIn)
	}
	for i := qp.ArrivalFirst; i <= qp.ArrivalLast; i++ {
		if v.Arrivals[i].At < qp.Start || v.Arrivals[i].At > qp.End {
			t.Fatalf("arrival %d at %v outside period", i, v.Arrivals[i].At)
		}
	}
}

func TestQueuingPeriodInvariantAcrossVictims(t *testing.T) {
	// Property over many packets: reconstructed queue length equals
	// ground-truth resident count at arrival instant.
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 9, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.4)})
	sched := cbr(simtime.MPPS(0.3), simtime.Duration(2*simtime.Millisecond), 5)
	sched.InjectBurst(traffic.BurstSpec{ID: 1, At: simtime.Time(500 * simtime.Microsecond), Flow: flow(1), Count: 300})
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	st := Build(col.Trace(collector.MetaOf(sim)))

	checked := 0
	for _, p := range sim.Packets() {
		h := p.HopAt("fw1")
		if h == nil {
			continue
		}
		qp := st.QueuingPeriodAt("fw1", h.EnqueueAt)
		if qp == nil {
			continue
		}
		// Ground truth: packets enqueued before (or at) this instant
		// and not yet dequeued. Count via hop records.
		resident := 0
		for _, q := range sim.Packets() {
			qh := q.HopAt("fw1")
			if qh == nil {
				continue
			}
			if qh.EnqueueAt <= h.EnqueueAt && qh.DequeueAt > h.EnqueueAt {
				resident++
			}
		}
		got := qp.NIn - qp.NProc
		// Reads at exactly the arrival instant create an off-by-a-
		// batch ambiguity; allow one batch of slack.
		diff := got - resident
		if diff < -32 || diff > 32 {
			t.Fatalf("queue length mismatch at %v: recon %d vs truth %d", h.EnqueueAt, got, resident)
		}
		checked++
		if checked > 200 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestQueuingPeriodResetsAfterDrain(t *testing.T) {
	// Two separated small bursts: the second burst's queuing period must
	// not reach back into the first.
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 4, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.5)})
	sched := &traffic.Schedule{}
	sched.InjectBurst(traffic.BurstSpec{ID: 1, At: simtime.Time(100 * simtime.Microsecond), Flow: flow(1), Count: 200})
	sched.InjectBurst(traffic.BurstSpec{ID: 2, At: simtime.Time(5 * simtime.Millisecond), Flow: flow(2), Count: 200})
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	st := Build(col.Trace(collector.MetaOf(sim)))

	qp := st.QueuingPeriodAt("fw1", simtime.Time(simtime.Duration(5100)*simtime.Microsecond))
	if qp == nil {
		t.Fatal("no period for second burst")
	}
	if qp.Start < simtime.Time(4*simtime.Millisecond) {
		t.Errorf("second burst period start %v reaches into first burst", qp.Start)
	}
}

func TestQueueLenAtIdle(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 4, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	sched := cbr(simtime.MPPS(0.1), simtime.Duration(simtime.Millisecond), 3)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(10 * simtime.Millisecond))
	st := Build(col.Trace(collector.MetaOf(sim)))
	// Long after the run, queue must be empty.
	if got := st.QueueLenAt("fw1", simtime.Time(9*simtime.Millisecond)); got != 0 {
		t.Errorf("idle queue length: got %d", got)
	}
	if st.QueuingPeriodAt("unknown", 0) != nil {
		t.Error("unknown comp should yield nil period")
	}
}

func TestStoreViewsAndMeta(t *testing.T) {
	sched := cbr(simtime.MPPS(0.2), simtime.Duration(simtime.Millisecond), 3)
	_, st := runChain(t, sched, simtime.MPPS(1), simtime.MPPS(0.9), simtime.MPPS(0.8))
	if st.View("fw1") == nil || st.View("nope") != nil {
		t.Error("View lookup wrong")
	}
	if st.PeakRate("fw1") != simtime.MPPS(0.9) {
		t.Errorf("PeakRate: got %v", st.PeakRate("fw1"))
	}
	if st.PeakRate(collector.SourceName) != 0 {
		t.Error("source peak rate should be 0")
	}
	if st.KindOf("nat1") != "nat" {
		t.Errorf("KindOf: got %q", st.KindOf("nat1"))
	}
	comps := st.Components()
	if len(comps) < 4 { // source + 3 NFs
		t.Errorf("components: %v", comps)
	}
	// Arrivals at fw1 all come from nat1.
	for _, a := range st.View("fw1").Arrivals {
		if st.CompName(a.From) != "nat1" {
			t.Fatalf("fw1 arrival from %q", st.CompName(a.From))
		}
	}
	// Journey linkage: arrivals carry journey indices after reconstruction.
	linked := 0
	for _, a := range st.View("fw1").Arrivals {
		if a.Journey >= 0 {
			linked++
		}
	}
	if linked == 0 {
		t.Error("no arrivals linked to journeys")
	}
}

func TestJourneyHelpers(t *testing.T) {
	const a, b, c CompID = 0, 1, 2
	j := Journey{
		EmittedAt: 10,
		Hops: []JourneyHop{
			{Comp: a, ArriveAt: 10, ReadAt: 12, DepartAt: 20},
			{Comp: b, ArriveAt: 20, ReadAt: 25, DepartAt: 40},
		},
		Delivered: true,
	}
	if j.LastCompID() != b {
		t.Error("LastCompID")
	}
	if j.HopAtID(a) == nil || j.HopAtID(c) != nil {
		t.Error("HopAtID")
	}
	if j.Latency() != 30 {
		t.Errorf("Latency: %v", j.Latency())
	}
	var empty Journey
	if empty.LastCompID() != NoComp || empty.Latency() != -1 {
		t.Error("empty journey helpers")
	}
}

func TestLostPacketsTruncatedJourneys(t *testing.T) {
	// Overload a tiny queue; dropped packets must yield non-delivered
	// journeys that end before egress.
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	sim.AddNF(nfsim.NFConfig{Name: "a", Kind: "nat", PeakRate: simtime.MPPS(1), Seed: 1})
	sim.AddNF(nfsim.NFConfig{Name: "b", Kind: "fw", PeakRate: simtime.PPS(50_000), QueueCap: 32, Seed: 2})
	sim.ConnectSource(func(*packet.Packet) int { return 0 }, "a")
	sim.Connect("a", func(*packet.Packet) int { return 0 }, "b")
	sim.Connect("b", func(*packet.Packet) int { return nfsim.Egress })
	sched := cbr(simtime.MPPS(0.5), simtime.Duration(2*simtime.Millisecond), 9)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(100 * simtime.Millisecond))

	meta := collector.Meta{MaxBatch: nfsim.DefaultMaxBatch}
	meta.Components = append(meta.Components,
		collector.ComponentMeta{Name: "source", Kind: "source"},
		collector.ComponentMeta{Name: "a", Kind: "nat", PeakRate: simtime.MPPS(1)},
		collector.ComponentMeta{Name: "b", Kind: "fw", PeakRate: simtime.PPS(50_000), Egress: true},
	)
	meta.Edges = append(meta.Edges, collector.Edge{From: "source", To: "a"}, collector.Edge{From: "a", To: "b"})
	st := Build(col.Trace(meta))

	truth := sim.Packets()
	droppedTruth, truncated := 0, 0
	for i, p := range truth {
		if p.Dropped == "" {
			continue
		}
		droppedTruth++
		j := &st.Journeys[i]
		if j.Delivered {
			t.Fatalf("dropped packet %d reconstructed as delivered", i)
		}
		if st.LastCompName(j) == "a" { // read at a, vanished before b
			truncated++
		}
	}
	if droppedTruth == 0 {
		t.Fatal("no drops in overload scenario")
	}
	if truncated < droppedTruth*9/10 {
		t.Errorf("truncated journeys: %d of %d drops", truncated, droppedTruth)
	}
}

// TestReconstructionBehindDynamicLB exercises the §5 hard case the paper
// calls out: an NF that assigns paths per packet (round-robin), so the
// "paths of packets" side channel cannot prune candidates by flow. The
// order and timing channels must carry the reconstruction instead.
func TestReconstructionBehindDynamicLB(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	sim.AddNF(nfsim.NFConfig{Name: "lb", Kind: "lb", PeakRate: simtime.MPPS(2), Seed: 1})
	sim.AddNF(nfsim.NFConfig{Name: "w1", Kind: "fw", PeakRate: simtime.MPPS(0.5), Seed: 2})
	sim.AddNF(nfsim.NFConfig{Name: "w2", Kind: "fw", PeakRate: simtime.MPPS(0.5), Seed: 3})
	sim.AddNF(nfsim.NFConfig{Name: "vpn", Kind: "vpn", PeakRate: simtime.MPPS(0.9), Seed: 4})
	sim.ConnectSource(func(*packet.Packet) int { return 0 }, "lb")
	rr := 0
	sim.Connect("lb", func(*packet.Packet) int { rr++; return rr % 2 }, "w1", "w2")
	sim.Connect("w1", func(*packet.Packet) int { return 0 }, "vpn")
	sim.Connect("w2", func(*packet.Packet) int { return 0 }, "vpn")
	sim.Connect("vpn", func(*packet.Packet) int { return nfsim.Egress })

	sched := cbr(simtime.MPPS(0.6), simtime.Duration(5*simtime.Millisecond), 31)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(100 * simtime.Millisecond))

	meta := collector.Meta{
		MaxBatch: nfsim.DefaultMaxBatch,
		Components: []collector.ComponentMeta{
			{Name: "source", Kind: "source"},
			{Name: "lb", Kind: "lb", PeakRate: simtime.MPPS(2)},
			{Name: "w1", Kind: "fw", PeakRate: simtime.MPPS(0.5)},
			{Name: "w2", Kind: "fw", PeakRate: simtime.MPPS(0.5)},
			{Name: "vpn", Kind: "vpn", PeakRate: simtime.MPPS(0.9), Egress: true},
		},
		Edges: []collector.Edge{
			{From: "source", To: "lb"},
			{From: "lb", To: "w1"}, {From: "lb", To: "w2"},
			{From: "w1", To: "vpn"}, {From: "w2", To: "vpn"},
		},
	}
	st := Build(col.Trace(meta))

	truth := sim.Packets()
	delivered, exactPath := 0, 0
	for i, p := range truth {
		j := &st.Journeys[i]
		if !j.Delivered || p.Dropped != "" {
			continue
		}
		delivered++
		want := p.Path()
		if len(j.Hops) == len(want) {
			same := true
			for h := range want {
				if st.CompName(j.Hops[h].Comp) != want[h] {
					same = false
					break
				}
			}
			if same {
				exactPath++
			}
		}
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Queue-level FIFO matching does not depend on per-flow path
	// stability, so even a per-packet LB reconstructs cleanly here; the
	// paper's concern applies when IPID collisions force the path
	// filter, which the ordering channel covers at this scale.
	if frac := float64(exactPath) / float64(delivered); frac < 0.95 {
		t.Errorf("paths behind dynamic LB: %.4f exact (%s)", frac, st.String())
	}
}

// TestIPIDRewritingNFTruncatesJourneys documents the §7 limitation: an NF
// that regenerates IPIDs (proxy, some NATs) breaks packet tracking across
// it. Journeys must truncate there — not silently mis-match — and per-NF
// queuing analysis must keep working on both segments.
func TestIPIDRewritingNFTruncatesJourneys(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	sim.AddNF(nfsim.NFConfig{Name: "proxy", Kind: "proxy", PeakRate: simtime.MPPS(1), RewriteIPID: true, Seed: 1})
	sim.AddNF(nfsim.NFConfig{Name: "vpn", Kind: "vpn", PeakRate: simtime.MPPS(0.8), Seed: 2})
	sim.ConnectSource(func(*packet.Packet) int { return 0 }, "proxy")
	sim.Connect("proxy", func(*packet.Packet) int { return 0 }, "vpn")
	sim.Connect("vpn", func(*packet.Packet) int { return nfsim.Egress })
	sched := cbr(simtime.MPPS(0.3), simtime.Duration(2*simtime.Millisecond), 7)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))

	meta := collector.Meta{
		MaxBatch: nfsim.DefaultMaxBatch,
		Components: []collector.ComponentMeta{
			{Name: "source", Kind: "source"},
			{Name: "proxy", Kind: "proxy", PeakRate: simtime.MPPS(1)},
			{Name: "vpn", Kind: "vpn", PeakRate: simtime.MPPS(0.8), Egress: true},
		},
		Edges: []collector.Edge{{From: "source", To: "proxy"}, {From: "proxy", To: "vpn"}},
	}
	st := Build(col.Trace(meta))

	// Every journey truncates at the proxy: read there, never linked on.
	for i := range st.Journeys {
		j := &st.Journeys[i]
		if j.Delivered {
			t.Fatalf("journey %d crossed an IPID-rewriting NF", i)
		}
		if st.LastCompName(j) != "proxy" {
			t.Fatalf("journey %d last comp %q, want proxy", i, st.LastCompName(j))
		}
	}
	// Both segments still support queuing-period analysis: probe at an
	// actual arrival instant on each side.
	proxyArr := st.View("proxy").Arrivals
	if qp := st.QueuingPeriodAt("proxy", proxyArr[len(proxyArr)/2].At); qp == nil || qp.NIn == 0 {
		t.Error("no queuing period at the proxy segment")
	}
	vpnArr := st.View("vpn").Arrivals
	if qp := st.QueuingPeriodAt("vpn", vpnArr[len(vpnArr)/2].At); qp == nil || qp.NIn == 0 {
		t.Error("no queuing period at the downstream segment")
	}
	// The downstream view sees the rewritten arrivals.
	if len(st.View("vpn").Arrivals) != sched.Len() {
		t.Errorf("vpn arrivals: %d vs %d", len(st.View("vpn").Arrivals), sched.Len())
	}
}

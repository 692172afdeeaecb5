package tracestore

import (
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// chainTrace runs a 3-NF chain and returns the collected trace.
func chainTrace(t *testing.T) *collector.Trace {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 3,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.9)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.8)},
	)
	sched := cbr(simtime.MPPS(0.3), simtime.Duration(3*simtime.Millisecond), 7)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	return col.Trace(collector.MetaOf(sim))
}

func TestAlignClocksRecoversOffsets(t *testing.T) {
	tr := chainTrace(t)
	// Skew fw1 by +300us and vpn1 by -150us, as two unsynchronized
	// machines would be.
	skewed := SkewTrace(tr, "fw1", 300*simtime.Microsecond)
	skewed = SkewTrace(skewed, "vpn1", -150*simtime.Microsecond)

	offsets, fixed := AlignClocks(skewed)
	tol := simtime.Duration(20 * simtime.Microsecond)
	check := func(comp string, want simtime.Duration) {
		t.Helper()
		got := offsets[comp]
		if got < want-tol || got > want+tol {
			t.Errorf("%s offset: got %v, want ~%v", comp, got, want)
		}
	}
	check("nat1", 0)
	check("fw1", 300*simtime.Microsecond)
	check("vpn1", -150*simtime.Microsecond)

	// The corrected trace must reconstruct as well as the original.
	st := Build(fixed)
	delivered := 0
	for i := range st.Journeys {
		if st.Journeys[i].Delivered {
			delivered++
		}
	}
	if delivered < len(st.Journeys)*9/10 {
		t.Errorf("corrected trace reconstructs poorly: %d of %d delivered", delivered, len(st.Journeys))
	}
	if st.ReconStats().Unmatched > len(st.Journeys)/50 {
		t.Errorf("unmatched after correction: %+v", st.ReconStats())
	}
}

func TestSkewBreaksReconstructionAlignmentRepairs(t *testing.T) {
	tr := chainTrace(t)
	// A large negative skew puts fw1's reads BEFORE the upstream writes:
	// causality inverts and reconstruction must degrade.
	skewed := SkewTrace(tr, "fw1", -2*simtime.Millisecond)
	// Building directly would violate the encoder's time ordering only
	// at encode time; Build consumes records as-is.
	stBad := Build(skewed)
	badDelivered := 0
	for i := range stBad.Journeys {
		if stBad.Journeys[i].Delivered {
			badDelivered++
		}
	}

	_, fixed := AlignClocks(skewed)
	stGood := Build(fixed)
	goodDelivered := 0
	for i := range stGood.Journeys {
		if stGood.Journeys[i].Delivered {
			goodDelivered++
		}
	}
	if goodDelivered <= badDelivered {
		t.Errorf("alignment did not help: %d -> %d delivered", badDelivered, goodDelivered)
	}
	if goodDelivered < len(stGood.Journeys)*9/10 {
		t.Errorf("post-alignment reconstruction weak: %d of %d", goodDelivered, len(stGood.Journeys))
	}
}

func TestAlignClocksNoSkewIsStable(t *testing.T) {
	tr := chainTrace(t)
	offsets, _ := AlignClocks(tr)
	tol := simtime.Duration(20 * simtime.Microsecond)
	for comp, off := range offsets {
		if off > tol || off < -tol {
			t.Errorf("%s: spurious offset %v on a synchronized trace", comp, off)
		}
	}
}

func TestAlignClocksDAG(t *testing.T) {
	// Multi-upstream destination: two NFs feed one VPN; skew one upstream.
	col := collector.New(collector.Config{})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: 9})
	mix := traffic.NewMix(traffic.MixConfig{Flows: 256, Seed: 10})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate: simtime.MPPS(0.8), Duration: 3 * simtime.Millisecond, Seed: 11,
	})
	topo.Sim.LoadSchedule(sched)
	topo.Sim.Run(simtime.Time(50 * simtime.Millisecond))
	tr := col.Trace(collector.MetaOf(topo.Sim))

	skewed := SkewTrace(tr, "vpn1", 250*simtime.Microsecond)
	offsets, _ := AlignClocks(skewed)
	got := offsets["vpn1"]
	// vpn1 has many upstreams (firewalls + monitors); the nearest-read
	// estimator is coarser, so allow a wider tolerance.
	if got < 150*simtime.Microsecond || got > 350*simtime.Microsecond {
		t.Errorf("vpn1 offset: got %v, want ~250us", got)
	}
}

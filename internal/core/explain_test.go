package core

import (
	"strings"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

func TestExplainPropagatedVictim(t *testing.T) {
	// The Figure 2 shape: interrupt at the nat, victim queued at the vpn.
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 33,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1.0)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.6)},
	)
	sched := cbr(simtime.MPPS(0.4), simtime.Duration(5*simtime.Millisecond), 7)
	sim.LoadSchedule(sched)
	sim.InjectInterrupt("nat1", simtime.Time(simtime.Millisecond), 800*simtime.Microsecond, "x")
	sim.Run(simtime.Time(100 * simtime.Millisecond))
	st := tracestore.Build(col.Trace(collector.MetaOf(sim)))

	// Find a vpn-queued victim after the interrupt.
	var victim *Victim
	for i := range st.Journeys {
		j := &st.Journeys[i]
		h := st.HopAt(j, "vpn1")
		if h == nil || h.ReadAt == 0 || h.ArriveAt < simtime.Time(1900*simtime.Microsecond) {
			continue
		}
		if d := h.ReadAt.Sub(h.ArriveAt); d > 100*simtime.Microsecond {
			victim = &Victim{Journey: i, Comp: "vpn1", ArriveAt: h.ArriveAt, QueueDelay: d}
			break
		}
	}
	if victim == nil {
		t.Fatal("no vpn victim")
	}
	eng := NewEngine(Config{})
	ex := eng.Explain(st, *victim)
	if ex.Root == nil {
		t.Fatal("no root node")
	}
	if ex.Root.Comp != "vpn1" || ex.Root.Si <= 0 {
		t.Errorf("root: %+v", ex.Root)
	}
	// The vpn's input pressure must be attributed to nat1, and the
	// recursion must descend into nat1's own queuing period showing its
	// Sp (the interrupt).
	natShare := false
	for _, s := range ex.Root.Shares {
		if s.Comp == "nat1" && s.Score > 0 {
			natShare = true
		}
	}
	if !natShare {
		t.Error("no nat1 share at the root")
	}
	natChild := false
	for _, c := range ex.Root.Children {
		if c.Comp == "nat1" && c.Sp > 0 {
			natChild = true
		}
	}
	if !natChild {
		t.Error("recursion did not surface nat1's local Sp")
	}

	out := ex.Render()
	for _, want := range []string{"queuing period at vpn1", "queuing period at nat1", "input pressure from nat1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The rendered scores must be consistent with DiagnoseVictim's.
	d := eng.DiagnoseVictim(st, *victim)
	if len(d.Causes) == 0 || d.Causes[0].Comp != "nat1" {
		t.Errorf("diagnosis disagrees with explanation: %+v", d.Causes)
	}
}

func TestExplainNoQueue(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 3, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	sched := cbr(simtime.MPPS(0.05), simtime.Duration(simtime.Millisecond), 3)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	st := tracestore.Build(col.Trace(collector.MetaOf(sim)))

	eng := NewEngine(Config{})
	ex := eng.Explain(st, Victim{Comp: "nowhere", ArriveAt: 100})
	if ex.Root != nil {
		t.Error("unknown comp should yield nil root")
	}
	if !strings.Contains(ex.Render(), "not queue-induced") {
		t.Error("render should explain the empty tree")
	}
	// Use a traffic generator reference so the import stays needed even
	// if cbr moves.
	_ = traffic.Emission{}
}

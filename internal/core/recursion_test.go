package core

import (
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// TestTwoLevelRecursion reproduces the Figure 8 structure: the victim's NF
// (f) is overwhelmed by input from m; m's own queuing period is itself
// input-dominated (a burst from x, released by an interrupt); the recursion
// must descend f → m → x and pin x's local processing.
//
//	source ─→ x ─┐
//	             ├─→ m ─→ f (victims here)
//	source ─→ y ─┘
func TestTwoLevelRecursion(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	sim.AddNF(nfsim.NFConfig{Name: "x", Kind: "nat", PeakRate: simtime.MPPS(1.0), Seed: 1})
	sim.AddNF(nfsim.NFConfig{Name: "y", Kind: "mon", PeakRate: simtime.MPPS(1.0), Seed: 2})
	sim.AddNF(nfsim.NFConfig{Name: "m", Kind: "fw", PeakRate: simtime.MPPS(0.6), Seed: 3})
	sim.AddNF(nfsim.NFConfig{Name: "f", Kind: "vpn", PeakRate: simtime.MPPS(0.5), Seed: 4})
	sim.ConnectSource(func(p *packet.Packet) int {
		if p.Flow.DstPort == 7777 {
			return 0 // cross traffic via x
		}
		return 1 // background via y
	}, "x", "y")
	sim.Connect("x", func(*packet.Packet) int { return 0 }, "m")
	sim.Connect("y", func(*packet.Packet) int { return 0 }, "m")
	sim.Connect("m", func(*packet.Packet) int { return 0 }, "f")
	sim.Connect("f", func(*packet.Packet) int { return nfsim.Egress })

	cross := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 7777, Proto: 17}
	bg := packet.FiveTuple{SrcIP: 4, DstIP: 5, SrcPort: 6, DstPort: 80, Proto: 6}
	s := &traffic.Schedule{}
	dur := simtime.Duration(6 * simtime.Millisecond)
	s.InjectFlow(bg, 0, int(simtime.MPPS(0.35).PacketsF(dur)), simtime.MPPS(0.35).Interval(), 64)
	s.InjectFlow(cross, 0, int(simtime.MPPS(0.1).PacketsF(dur)), simtime.MPPS(0.1).Interval(), 64)
	sim.LoadSchedule(s)
	sim.InjectInterrupt("x", simtime.Time(simtime.Millisecond), simtime.Duration(simtime.Millisecond), "fig8")
	sim.Run(simtime.Time(100 * simtime.Millisecond))

	meta := collector.Meta{
		MaxBatch: nfsim.DefaultMaxBatch,
		Components: []collector.ComponentMeta{
			{Name: collector.SourceName, Kind: "source"},
			{Name: "x", Kind: "nat", PeakRate: simtime.MPPS(1.0)},
			{Name: "y", Kind: "mon", PeakRate: simtime.MPPS(1.0)},
			{Name: "m", Kind: "fw", PeakRate: simtime.MPPS(0.6)},
			{Name: "f", Kind: "vpn", PeakRate: simtime.MPPS(0.5), Egress: true},
		},
		Edges: []collector.Edge{
			{From: collector.SourceName, To: "x"},
			{From: collector.SourceName, To: "y"},
			{From: "x", To: "m"}, {From: "y", To: "m"}, {From: "m", To: "f"},
		},
	}
	st := tracestore.Build(col.Trace(meta))

	eng := NewEngine(Config{})
	// Victims: background packets queued at f after the interrupt ended.
	after := simtime.Time(2100 * simtime.Microsecond)
	xBlamed, total := 0, 0
	deepSeen := false
	for i := range st.Journeys {
		j := &st.Journeys[i]
		hop := st.HopAt(j, "f")
		if hop == nil || hop.ReadAt == 0 || hop.ArriveAt < after {
			continue
		}
		delay := hop.ReadAt.Sub(hop.ArriveAt)
		if delay < 60*simtime.Microsecond {
			continue
		}
		v := Victim{Journey: i, Comp: "f", ArriveAt: hop.ArriveAt, QueueDelay: delay}
		d := eng.DiagnoseVictim(st, v)
		if len(d.Causes) == 0 {
			continue
		}
		total++
		for _, c := range d.Causes {
			if c.Comp == "x" && c.Kind == CulpritLocalProcessing {
				xBlamed++
				break
			}
		}
		// The explanation tree must show the two-level descent
		// f -> m -> x at least once: either as a nested node or as an
		// input-pressure share attributed to x inside m's node.
		if !deepSeen {
			ex := eng.Explain(st, v)
			if ex.Root != nil {
				for _, c1 := range ex.Root.Children {
					if c1.Comp != "m" {
						continue
					}
					for _, c2 := range c1.Children {
						if c2.Comp == "x" {
							deepSeen = true
						}
					}
					for _, sh := range c1.Shares {
						if sh.Comp == "x" && sh.Score > 0 {
							deepSeen = true
						}
					}
				}
			}
		}
		if total >= 80 {
			break
		}
	}
	if total == 0 {
		t.Fatal("no victims at f")
	}
	if frac := float64(xBlamed) / float64(total); frac < 0.6 {
		t.Errorf("x implicated for only %.2f of %d two-hop victims", frac, total)
	}
	if !deepSeen {
		t.Error("explanation never showed the f -> m -> x descent")
	}
}

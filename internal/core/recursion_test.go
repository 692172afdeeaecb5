package core

import (
	"fmt"
	"strings"
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

// deepRecursionStore is TestTwoLevelRecursion's DAG re-rated so that the
// recursion reaches a second level. x (0.5 Mpps) carries 0.42 Mpps and is
// interrupted for 500 µs at 0.5 ms; its backlog then drains for over a
// millisecond at its peak rate, a little faster than it came in. m
// (0.6 Mpps) also takes y's 0.1 Mpps, so x's drain queues m with input
// pressure, and m's drain queues f (0.57 Mpps). A victim at f recurses
// into m, whose period's input share recurses into x, still queued.
func deepRecursionStore() *tracestore.Store {
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	sim.AddNF(nfsim.NFConfig{Name: "x", Kind: "nat", PeakRate: simtime.MPPS(0.5), Seed: 1})
	sim.AddNF(nfsim.NFConfig{Name: "y", Kind: "mon", PeakRate: simtime.MPPS(1.0), Seed: 2})
	sim.AddNF(nfsim.NFConfig{Name: "m", Kind: "fw", PeakRate: simtime.MPPS(0.6), Seed: 3})
	sim.AddNF(nfsim.NFConfig{Name: "f", Kind: "vpn", PeakRate: simtime.MPPS(0.57), Seed: 4})
	sim.ConnectSource(func(p *packet.Packet) int {
		if p.Flow.DstPort == 7777 {
			return 1 // via y
		}
		return 0 // via x
	}, "x", "y")
	sim.Connect("x", func(*packet.Packet) int { return 0 }, "m")
	sim.Connect("y", func(*packet.Packet) int { return 0 }, "m")
	sim.Connect("m", func(*packet.Packet) int { return 0 }, "f")
	sim.Connect("f", func(*packet.Packet) int { return nfsim.Egress })

	viaX := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80, Proto: 6}
	viaY := packet.FiveTuple{SrcIP: 4, DstIP: 5, SrcPort: 6, DstPort: 7777, Proto: 17}
	s := &traffic.Schedule{}
	dur := simtime.Duration(6 * simtime.Millisecond)
	s.InjectFlow(viaX, 0, int(simtime.MPPS(0.42).PacketsF(dur)), simtime.MPPS(0.42).Interval(), 64)
	s.InjectFlow(viaY, 0, int(simtime.MPPS(0.1).PacketsF(dur)), simtime.MPPS(0.1).Interval(), 64)
	sim.LoadSchedule(s)
	sim.InjectInterrupt("x", simtime.Time(500*simtime.Microsecond), 500*simtime.Microsecond, "x")
	sim.Run(simtime.Time(100 * simtime.Millisecond))
	return tracestore.Build(col.Trace(collector.MetaOf(sim)))
}

// treeDepth is the depth of an explanation tree's deepest node (the root
// is at 0).
func treeDepth(n *ExplainNode) int {
	d := 0
	for _, c := range n.Children {
		d = max(d, 1+treeDepth(c))
	}
	return d
}

// pruned copies n without its nodes below depth.
func pruned(n *ExplainNode, depth int) *ExplainNode {
	cp := *n
	cp.Children = nil
	if depth > 0 {
		for _, c := range n.Children {
			cp.Children = append(cp.Children, pruned(c, depth-1))
		}
	}
	return &cp
}

// TestExplainDepthTwo exercises the §4.3 recursion below its first child.
// For every victim at f whose explanation has a node at depth 2, the tree
// still folds into DiagnoseVictim's causes, and with MaxRecursionDepth 1
// the explanation is the same tree without the nodes below depth 1.
func TestExplainDepthTwo(t *testing.T) {
	st := deepRecursionStore()
	eng := NewEngine(Config{})
	capped := NewEngine(Config{MaxRecursionDepth: 1})
	var fs foldStats
	deep, victims := 0, 0
	for i := range st.Journeys {
		j := &st.Journeys[i]
		hop := st.HopAt(j, "f")
		if hop == nil || hop.ReadAt == 0 {
			continue
		}
		delay := hop.ReadAt.Sub(hop.ArriveAt)
		if delay < 20*simtime.Microsecond {
			continue
		}
		victims++
		v := Victim{Journey: i, Comp: "f", ArriveAt: hop.ArriveAt, QueueDelay: delay}
		ex := eng.Explain(st, v)
		if ex.Root == nil || treeDepth(ex.Root) < 2 {
			continue
		}
		deep++
		name := fmt.Sprintf("victim at f, journey %d", i)
		checkFold(t, name, ex, eng.DiagnoseVictim(st, v), &fs)
		var got, want strings.Builder
		writeTree(&got, capped.Explain(st, v).Root)
		writeTree(&want, pruned(ex.Root, 1))
		if got.String() != want.String() {
			t.Errorf("%s: at MaxRecursionDepth 1 the tree is\n%s\nwant the depth-1 prune\n%s", name, got.String(), want.String())
		}
	}
	t.Logf("%d of %d victims at f explained to depth 2 or more; folded %+v", deep, victims, fs)
	if deep == 0 || fs.maxDepth < 2 {
		t.Fatalf("no explanation reaches depth 2 (%d victims at f)", victims)
	}
}

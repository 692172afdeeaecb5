package core

import (
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// figure2Store rebuilds the Figure 2 shape: background through nat→vpn,
// probe flow A straight to the vpn, interrupt at the nat.
func figure2Store(t *testing.T) (*tracestore.Store, packet.FiveTuple) {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	sim.AddNF(nfsim.NFConfig{Name: "nat", Kind: "nat", PeakRate: simtime.MPPS(1.0), Seed: 1})
	sim.AddNF(nfsim.NFConfig{Name: "vpn", Kind: "vpn", PeakRate: simtime.MPPS(0.6), Seed: 2})
	fa := packet.FiveTuple{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6, Proto: 17}
	sim.ConnectSource(func(p *packet.Packet) int {
		if p.Flow == fa {
			return 1
		}
		return 0
	}, "nat", "vpn")
	sim.Connect("nat", func(*packet.Packet) int { return 0 }, "vpn")
	sim.Connect("vpn", func(*packet.Packet) int { return nfsim.Egress })

	dur := simtime.Duration(8 * simtime.Millisecond)
	sched := cbr(simtime.MPPS(0.45), dur, 13)
	sched.InjectFlow(fa, 0, int(simtime.MPPS(0.05).PacketsF(dur)), simtime.MPPS(0.05).Interval(), 64)
	sim.LoadSchedule(sched)
	sim.InjectInterrupt("nat", simtime.Time(2*simtime.Millisecond), 800*simtime.Microsecond, "i")
	sim.Run(simtime.Time(100 * simtime.Millisecond))

	meta := collector.Meta{
		MaxBatch: nfsim.DefaultMaxBatch,
		Components: []collector.ComponentMeta{
			{Name: collector.SourceName, Kind: "source"},
			{Name: "nat", Kind: "nat", PeakRate: simtime.MPPS(1.0)},
			{Name: "vpn", Kind: "vpn", PeakRate: simtime.MPPS(0.6), Egress: true},
		},
		Edges: []collector.Edge{
			{From: collector.SourceName, To: "nat"},
			{From: collector.SourceName, To: "vpn"},
			{From: "nat", To: "vpn"},
		},
	}
	st := tracestore.Build(col.Trace(meta))
	return st, fa
}

func TestThroughputVictimsFindFlowADip(t *testing.T) {
	st, fa := figure2Store(t)
	eng := NewEngine(Config{})
	victims := eng.ThroughputVictims(st, ThroughputConfig{})
	if len(victims) == 0 {
		t.Fatal("no throughput victims")
	}
	// Flow A must be among them: its delivery dips during the VPN
	// congestion despite never traversing the NAT.
	found := false
	for _, v := range victims {
		if v.Kind != VictimThroughput {
			t.Fatalf("victim kind: %v", v.Kind)
		}
		if v.HasTuple && v.Tuple == fa {
			found = true
			// And diagnosing it must blame the NAT.
			d := eng.DiagnoseVictim(st, v)
			if len(d.Causes) > 0 && d.Causes[0].Comp == "nat" {
				return
			}
		}
	}
	if !found {
		t.Fatal("flow A never selected as a throughput victim")
	}
	t.Error("flow A selected but NAT never blamed first")
}

func TestThroughputVictimsQuietFlow(t *testing.T) {
	// A steady flow on an underloaded NF: no dips, no victims.
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 5, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	sched := cbr(simtime.MPPS(0.2), simtime.Duration(5*simtime.Millisecond), 1)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	st := tracestore.Build(col.Trace(collector.MetaOf(sim)))
	victims := NewEngine(Config{}).ThroughputVictims(st, ThroughputConfig{DipStdDevs: 4})
	if len(victims) != 0 {
		t.Errorf("quiet flow produced %d throughput victims", len(victims))
	}
}

func TestThroughputConfigDefaults(t *testing.T) {
	var c ThroughputConfig
	c.setDefaults()
	if c.Window != 100*simtime.Microsecond || c.DipStdDevs != 2 || c.MinPackets != 50 || c.MaxVictims != 200 {
		t.Errorf("defaults: %+v", c)
	}
}

func TestFlowLessTotalOrder(t *testing.T) {
	a := packet.FiveTuple{SrcIP: 1}
	b := packet.FiveTuple{SrcIP: 2}
	if !flowLess(a, b) || flowLess(b, a) || flowLess(a, a) {
		t.Error("flowLess broken")
	}
	c := packet.FiveTuple{SrcIP: 1, DstPort: 5}
	if !flowLess(a, c) {
		t.Error("dst port tiebreak")
	}
}

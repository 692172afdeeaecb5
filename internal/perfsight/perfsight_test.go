package perfsight

import (
	"strings"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

func cbr(rate simtime.Rate, dur simtime.Duration) *traffic.Schedule {
	iv := rate.Interval()
	var ems []traffic.Emission
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	i := 0
	for t := simtime.Time(0); t < simtime.Time(dur); t = t.Add(iv) {
		f := ft
		f.SrcPort = uint16(1000 + i%50)
		ems = append(ems, traffic.Emission{At: t, Flow: f, Size: 64, Burst: -1})
		i++
	}
	return &traffic.Schedule{Emissions: ems}
}

// persistentTrace: an undersized NF drops constantly — PerfSight's home turf.
func persistentTrace(t *testing.T) *collector.Trace {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	sim.AddNF(nfsim.NFConfig{Name: "nat1", Kind: "nat", PeakRate: simtime.MPPS(1), Seed: 1})
	sim.AddNF(nfsim.NFConfig{Name: "fw1", Kind: "fw", PeakRate: simtime.MPPS(0.2), QueueCap: 128, Seed: 2})
	sim.ConnectSource(func(*packet.Packet) int { return 0 }, "nat1")
	sim.Connect("nat1", func(*packet.Packet) int { return 0 }, "fw1")
	sim.Connect("fw1", func(*packet.Packet) int { return nfsim.Egress })
	sim.LoadSchedule(cbr(simtime.MPPS(0.4), 20*simtime.Millisecond))
	sim.Run(simtime.Time(200 * simtime.Millisecond))
	meta := collector.Meta{
		MaxBatch: nfsim.DefaultMaxBatch,
		Components: []collector.ComponentMeta{
			{Name: "source", Kind: "source"},
			{Name: "nat1", Kind: "nat", PeakRate: simtime.MPPS(1)},
			{Name: "fw1", Kind: "fw", PeakRate: simtime.MPPS(0.2), Egress: true},
		},
		Edges: []collector.Edge{{From: "source", To: "nat1"}, {From: "nat1", To: "fw1"}},
	}
	return col.Trace(meta)
}

// transientTrace: a healthy chain with one interrupt — tail latency, no
// sustained loss.
func transientTrace(t *testing.T) *collector.Trace {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 7,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
	)
	sim.LoadSchedule(cbr(simtime.MPPS(0.4), 20*simtime.Millisecond))
	sim.InjectInterrupt("fw1", simtime.Time(5*simtime.Millisecond), 900*simtime.Microsecond, "x")
	sim.Run(simtime.Time(200 * simtime.Millisecond))
	return col.Trace(collector.MetaOf(sim))
}

func TestPerfSightFindsPersistentBottleneck(t *testing.T) {
	res := Diagnose(persistentTrace(t), Config{})
	bns := res.Bottlenecks()
	if len(bns) == 0 {
		t.Fatalf("no bottlenecks found:\n%s", res.Render())
	}
	// The loss surfaces at the element whose transmit counters show the
	// deficit (nat1's tx drops into fw1's full ring) and/or fw1's
	// saturation; either way the undersized stage must top the list.
	top := bns[0]
	if top.Comp != "nat1" && top.Comp != "fw1" {
		t.Errorf("top bottleneck: %s\n%s", top.Comp, res.Render())
	}
	if top.Reason == "" {
		t.Error("no reason")
	}
	// fw1 must show saturation.
	for _, e := range res.Elements {
		if e.Comp == "fw1" && e.Utilization < 0.9 {
			t.Errorf("fw1 utilization %.2f, expected saturated", e.Utilization)
		}
	}
}

func TestPerfSightMissesTransientProblem(t *testing.T) {
	// The §8 claim: a 900us interrupt that creates tail latency leaves no
	// persistent counter evidence.
	res := Diagnose(transientTrace(t), Config{})
	if n := len(res.Bottlenecks()); n != 0 {
		t.Errorf("PerfSight flagged %d bottlenecks on a transient-only trace:\n%s", n, res.Render())
	}
}

func TestPerfSightRender(t *testing.T) {
	res := Diagnose(persistentTrace(t), Config{})
	out := res.Render()
	for _, want := range []string{"element", "throughput", "BOTTLENECK"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPerfSightConfigDefaults(t *testing.T) {
	var c Config
	c.setDefaults()
	if c.LossRatio != 0.001 || c.Utilization != 0.9 {
		t.Errorf("defaults: %+v", c)
	}
}

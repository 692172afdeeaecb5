package nfsim

import (
	"testing"

	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

func steady(rate simtime.Rate, dur simtime.Duration) *traffic.Schedule {
	iv := rate.Interval()
	var ems []traffic.Emission
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	for t := simtime.Time(0); t < simtime.Time(dur); t = t.Add(iv) {
		ems = append(ems, traffic.Emission{At: t, Flow: ft, Size: 64, Burst: -1})
	}
	return &traffic.Schedule{Emissions: ems}
}

func TestNFStatsAccounting(t *testing.T) {
	sim := BuildChain(NopHooks{}, 1, ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.5)})
	sched := steady(simtime.MPPS(0.25), 4*simtime.Millisecond)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	st := sim.NF("fw1").Stats()
	if st.Processed != uint64(sched.Len()) {
		t.Errorf("processed: %d vs %d", st.Processed, sched.Len())
	}
	if st.Batches == 0 || st.Batches > st.Processed {
		t.Errorf("batches: %d", st.Batches)
	}
	// Busy time ≈ packets / peak rate, with ≤ 5% jitter margin.
	ideal := float64(st.Processed) * float64(simtime.MPPS(0.5).Interval())
	if f := float64(st.BusyTime); f < ideal || f > ideal*1.07 {
		t.Errorf("busy time %v vs ideal %v", st.BusyTime, ideal)
	}
	if st.StallTime != 0 {
		t.Errorf("stall time without interrupts: %v", st.StallTime)
	}
}

func TestPerPacketOverheadSlowsNF(t *testing.T) {
	run := func(overhead simtime.Duration) uint64 {
		sim := New(NopHooks{})
		sim.AddNF(NFConfig{
			Name: "fw1", Kind: "fw", PeakRate: simtime.MPPS(0.5),
			PerPacketOverhead: overhead, Seed: 1,
		})
		sim.ConnectSource(func(*packet.Packet) int { return 0 }, "fw1")
		sim.Connect("fw1", func(*packet.Packet) int { return Egress })
		sim.LoadSchedule(steady(simtime.MPPS(1.0), 10*simtime.Millisecond)) // saturate
		sim.Run(simtime.Time(10 * simtime.Millisecond))
		return sim.NF("fw1").Stats().Processed
	}
	base := run(0)
	inst := run(100 * simtime.Nanosecond) // 5% of the 2us service time
	if inst >= base {
		t.Fatalf("overhead did not reduce throughput: %d vs %d", inst, base)
	}
	degradation := 1 - float64(inst)/float64(base)
	if degradation < 0.03 || degradation > 0.07 {
		t.Errorf("degradation %.3f, want ~0.05", degradation)
	}
}

func TestSpikesExtendServiceTimes(t *testing.T) {
	run := func(spikeProb float64) simtime.Duration {
		sim := New(NopHooks{})
		sim.AddNF(NFConfig{
			Name: "fw1", Kind: "fw", PeakRate: simtime.MPPS(0.5),
			SpikeProb: spikeProb, SpikeFactor: 50, Seed: 7,
		})
		sim.ConnectSource(func(*packet.Packet) int { return 0 }, "fw1")
		sim.Connect("fw1", func(*packet.Packet) int { return Egress })
		sim.LoadSchedule(steady(simtime.MPPS(0.3), 10*simtime.Millisecond))
		sim.Run(simtime.Time(100 * simtime.Millisecond))
		return sim.NF("fw1").Stats().BusyTime
	}
	calm := run(0)
	spiky := run(0.01)
	// 1% spikes at 50x add ~49% busy time.
	if float64(spiky) < float64(calm)*1.2 {
		t.Errorf("spikes had no effect: %v vs %v", spiky, calm)
	}
}

func TestOverlappingInterruptsExtendStall(t *testing.T) {
	sim := BuildChain(NopHooks{}, 1, ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.5)})
	sim.LoadSchedule(steady(simtime.MPPS(0.2), 5*simtime.Millisecond))
	// Two overlapping interrupts: [1ms, 2ms] and [1.5ms, 3ms].
	sim.InjectInterrupt("fw1", simtime.Time(simtime.Millisecond), simtime.Duration(simtime.Millisecond), "a")
	sim.InjectInterrupt("fw1", simtime.Time(1500*simtime.Microsecond), simtime.Duration(1500*simtime.Microsecond), "b")
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	st := sim.NF("fw1").Stats()
	want := simtime.Duration(2 * simtime.Millisecond) // union [1ms, 3ms]
	if st.StallTime < want-simtime.Duration(10*simtime.Microsecond) ||
		st.StallTime > want+simtime.Duration(10*simtime.Microsecond) {
		t.Errorf("stall: %v, want ~%v (union, not sum)", st.StallTime, want)
	}
}

func TestEvalTopologyPathOfPredicts(t *testing.T) {
	topo := BuildEvalTopology(NopHooks{}, EvalTopologyConfig{Seed: 3})
	mix := traffic.NewMix(traffic.MixConfig{Flows: 128, Seed: 4})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate: simtime.MPPS(0.6), Duration: 2 * simtime.Millisecond, Seed: 5,
	})
	topo.Sim.LoadSchedule(sched)
	topo.Sim.Run(simtime.Time(50 * simtime.Millisecond))
	checked := 0
	for _, p := range topo.Sim.Packets() {
		if p.Dropped != "" {
			continue
		}
		want := topo.Sim.PathOf(p.Flow)
		got := p.Path()
		if len(want) != len(got) {
			t.Fatalf("len: %v vs %v", want, got)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("path: predicted %v actual %v", want, got)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
	// NATOf/FirewallOf agree with PathOf.
	ft := mix.Flows[0].Tuple
	path := topo.Sim.PathOf(ft)
	if topo.NATOf(ft) != path[0] || topo.FirewallOf(ft) != path[1] {
		t.Error("NATOf/FirewallOf inconsistent with PathOf")
	}
}

func TestTopologyDefaults(t *testing.T) {
	topo := BuildEvalTopology(NopHooks{}, EvalTopologyConfig{Seed: 1})
	if len(topo.NATs) != 4 || len(topo.Firewalls) != 5 || len(topo.Monitors) != 3 || len(topo.VPNs) != 4 {
		t.Errorf("default sizes: %d/%d/%d/%d",
			len(topo.NATs), len(topo.Firewalls), len(topo.Monitors), len(topo.VPNs))
	}
	if topo.Sim.NF("fw3").Kind() != "fw" || topo.Sim.NF("missing") != nil {
		t.Error("NF lookup wrong")
	}
	// Duplicate NF names must panic.
	defer func() {
		if recover() == nil {
			t.Error("duplicate NF should panic")
		}
	}()
	sim := New(NopHooks{})
	sim.AddNF(NFConfig{Name: "x", Kind: "a", PeakRate: simtime.MPPS(1)})
	sim.AddNF(NFConfig{Name: "x", Kind: "a", PeakRate: simtime.MPPS(1)})
}

func TestNFZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero peak rate should panic")
		}
	}()
	sim := New(NopHooks{})
	sim.AddNF(NFConfig{Name: "bad", Kind: "x"})
}

func TestStallDuringIdleDelaysNextBatch(t *testing.T) {
	// Interrupt an idle NF; packets arriving mid-interrupt must wait.
	sim := BuildChain(NopHooks{}, 1, ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	sched := &traffic.Schedule{}
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	sched.InjectFlow(ft, simtime.Time(1500*simtime.Microsecond), 5, 10*simtime.Microsecond, 64)
	sim.LoadSchedule(sched)
	sim.InjectInterrupt("fw1", simtime.Time(simtime.Millisecond), simtime.Duration(simtime.Millisecond), "idle")
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	p := sim.Packets()[0]
	h := p.HopAt("fw1")
	if h.DequeueAt < simtime.Time(2*simtime.Millisecond) {
		t.Errorf("packet read at %v, inside the interrupt", h.DequeueAt)
	}
}

func TestPerByteCost(t *testing.T) {
	run := func(perByte simtime.Duration, size int) simtime.Duration {
		sim := New(NopHooks{})
		sim.AddNF(NFConfig{Name: "vpn1", Kind: "vpn", PeakRate: simtime.MPPS(0.5), PerByte: perByte, Seed: 1})
		sim.ConnectSource(func(*packet.Packet) int { return 0 }, "vpn1")
		sim.Connect("vpn1", func(*packet.Packet) int { return Egress })
		sched := &traffic.Schedule{}
		ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
		sched.InjectFlow(ft, 0, 100, 10*simtime.Microsecond, size)
		sim.LoadSchedule(sched)
		sim.Run(simtime.Time(50 * simtime.Millisecond))
		return sim.NF("vpn1").Stats().BusyTime
	}
	base := run(0, 64)
	small := run(simtime.Nanosecond, 64)   // +64ns per packet
	large := run(simtime.Nanosecond, 1500) // +1500ns per packet
	if small <= base {
		t.Error("per-byte cost had no effect")
	}
	wantDelta := simtime.Duration(100 * (1500 - 64)) // packets * byte diff * 1ns
	gotDelta := large - small
	if gotDelta < wantDelta*9/10 || gotDelta > wantDelta*11/10 {
		t.Errorf("byte-size scaling: got %v, want ~%v", gotDelta, wantDelta)
	}
}

func TestRuleMatchCost(t *testing.T) {
	run := func(rules int) simtime.Duration {
		sim := New(NopHooks{})
		sim.AddNF(NFConfig{
			Name: "fw1", Kind: "fw", PeakRate: simtime.MPPS(0.5),
			RuleCount: rules, PerRule: 2 * simtime.Nanosecond, Seed: 1,
		})
		sim.ConnectSource(func(*packet.Packet) int { return 0 }, "fw1")
		sim.Connect("fw1", func(*packet.Packet) int { return Egress })
		sim.LoadSchedule(steady(simtime.MPPS(0.1), 2*simtime.Millisecond))
		sim.Run(simtime.Time(50 * simtime.Millisecond))
		return sim.NF("fw1").Stats().BusyTime
	}
	// 1000 rules at 2ns each: +2us per packet — doubles the base 2us.
	small, big := run(10), run(1000)
	if float64(big) < float64(small)*1.5 {
		t.Errorf("rule cost did not scale: %v vs %v", small, big)
	}
}

func TestFlowSetupCost(t *testing.T) {
	build := func(tableCap int) (*Sim, *traffic.Schedule) {
		sim := New(NopHooks{})
		sim.AddNF(NFConfig{
			Name: "nat1", Kind: "nat", PeakRate: simtime.MPPS(0.5),
			FlowSetupCost: 10 * simtime.Microsecond, FlowTableCap: tableCap, Seed: 1,
		})
		sim.ConnectSource(func(*packet.Packet) int { return 0 }, "nat1")
		sim.Connect("nat1", func(*packet.Packet) int { return Egress })
		sched := &traffic.Schedule{}
		// 8 flows x 50 packets, interleaved.
		var ems []traffic.Emission
		for i := 0; i < 400; i++ {
			ems = append(ems, traffic.Emission{
				At: simtime.Time(simtime.Duration(i) * 10 * simtime.Microsecond),
				Flow: packet.FiveTuple{
					SrcIP: uint32(i % 8), DstIP: 9, SrcPort: 10, DstPort: 11, Proto: 17,
				},
				Size: 64, Burst: -1,
			})
		}
		sched.Emissions = ems
		return sim, sched
	}
	// Large table: setup paid once per flow (8 x 10us = 80us extra).
	sim, sched := build(1024)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(100 * simtime.Millisecond))
	busyLarge := sim.NF("nat1").Stats().BusyTime

	// Tiny table (4 entries, 8 flows round-robin): constant eviction
	// means nearly every packet re-pays setup.
	sim2, sched2 := build(4)
	sim2.LoadSchedule(sched2)
	sim2.Run(simtime.Time(100 * simtime.Millisecond))
	busySmall := sim2.NF("nat1").Stats().BusyTime

	if busySmall <= busyLarge {
		t.Errorf("table pressure should increase busy time: %v vs %v", busySmall, busyLarge)
	}
	// Expect roughly 400 setups vs 8: ~4ms extra vs 80us extra.
	if float64(busySmall-busyLarge) < float64(2*simtime.Millisecond) {
		t.Errorf("eviction churn too cheap: delta %v", busySmall-busyLarge)
	}
}

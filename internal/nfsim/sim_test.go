package nfsim

import (
	"fmt"
	"testing"

	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// recordingHooks captures the full batch stream for assertions.
type recordingHooks struct {
	NopHooks
	reads       []batchEvent
	writes      []batchEvent
	delivers    []batchEvent
	drops       []batchEvent
	maxRead     int
	lastDeliver simtime.Time
}

type batchEvent struct {
	who  string
	at   simtime.Time
	n    int
	ids  []packet.ID
	flow []packet.FiveTuple
}

func capture(who string, at simtime.Time, pkts []*packet.Packet) batchEvent {
	ev := batchEvent{who: who, at: at, n: len(pkts)}
	for _, p := range pkts {
		ev.ids = append(ev.ids, p.ID)
		ev.flow = append(ev.flow, p.Flow)
	}
	return ev
}

func (r *recordingHooks) BatchRead(nf string, at simtime.Time, q *Queue, pkts []*packet.Packet) {
	r.reads = append(r.reads, capture(nf, at, pkts))
	if len(pkts) > r.maxRead {
		r.maxRead = len(pkts)
	}
}
func (r *recordingHooks) BatchWrite(from string, at simtime.Time, q *Queue, pkts []*packet.Packet) {
	r.writes = append(r.writes, capture(from, at, pkts))
}
func (r *recordingHooks) Deliver(nf string, at simtime.Time, pkts []*packet.Packet) {
	r.delivers = append(r.delivers, capture(nf, at, pkts))
	r.lastDeliver = at
}
func (r *recordingHooks) Drop(from string, at simtime.Time, q *Queue, pkts []*packet.Packet) {
	r.drops = append(r.drops, capture(from, at, pkts))
}

func (r *recordingHooks) delivered() int {
	n := 0
	for _, d := range r.delivers {
		n += d.n
	}
	return n
}

func cbrSchedule(rate simtime.Rate, dur simtime.Duration, flow packet.FiveTuple) *traffic.Schedule {
	iv := rate.Interval()
	var ems []traffic.Emission
	for t := simtime.Time(0); t < simtime.Time(dur); t = t.Add(iv) {
		ems = append(ems, traffic.Emission{At: t, Flow: flow, Size: 64, Burst: -1})
	}
	return &traffic.Schedule{Emissions: ems}
}

func testFlow(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.IPFromOctets(10, 0, 0, byte(i)),
		DstIP:   packet.IPFromOctets(23, 0, 0, 1),
		SrcPort: uint16(1000 + i),
		DstPort: 9000,
		Proto:   packet.ProtoUDP,
	}
}

func TestSingleNFDeliversEverything(t *testing.T) {
	hooks := &recordingHooks{}
	sim := BuildChain(hooks, 1, ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	sched := cbrSchedule(simtime.MPPS(0.5), simtime.Duration(2*simtime.Millisecond), testFlow(1))
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(10 * simtime.Millisecond))

	want := sched.Len()
	if got := hooks.delivered(); got != want {
		t.Errorf("delivered: got %d, want %d", got, want)
	}
	if len(hooks.drops) != 0 {
		t.Errorf("unexpected drops: %d", len(hooks.drops))
	}
	// Underloaded NF should never accumulate full batches.
	if hooks.maxRead > DefaultMaxBatch {
		t.Errorf("batch exceeded max: %d", hooks.maxRead)
	}
}

func TestBatchNeverExceedsMax(t *testing.T) {
	hooks := &recordingHooks{}
	sim := BuildChain(hooks, 1, ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.2)})
	// Overload 5x to force full batches.
	sched := cbrSchedule(simtime.MPPS(1), simtime.Duration(1*simtime.Millisecond), testFlow(1))
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(20 * simtime.Millisecond))
	if hooks.maxRead != DefaultMaxBatch {
		t.Errorf("overloaded NF should hit max batch: got %d", hooks.maxRead)
	}
}

func TestOverloadDropsAtQueueCapacity(t *testing.T) {
	hooks := &recordingHooks{}
	sim := New(hooks)
	sim.AddNF(NFConfig{Name: "slow", Kind: "fw", PeakRate: simtime.PPS(50_000), QueueCap: 64, Seed: 1})
	sim.ConnectSource(func(*packet.Packet) int { return 0 }, "slow")
	sim.Connect("slow", func(*packet.Packet) int { return Egress })
	sched := cbrSchedule(simtime.MPPS(1), simtime.Duration(1*simtime.Millisecond), testFlow(2))
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))

	if len(hooks.drops) == 0 {
		t.Fatal("expected tail drops under 20x overload")
	}
	total := sched.Len()
	dropped := 0
	for _, d := range hooks.drops {
		dropped += d.n
	}
	if got := hooks.delivered() + dropped; got != total {
		t.Errorf("conservation: delivered+dropped = %d, want %d", got, total)
	}
	for _, p := range sim.Packets() {
		if p.Dropped == "" {
			continue
		}
		if p.Dropped != "slow" {
			t.Fatalf("drop location: got %q", p.Dropped)
		}
		if p.LastHop() != nil && p.LastHop().Node == "slow" {
			t.Fatal("dropped packet should not have a hop at the dropping NF")
		}
	}
}

func TestChainPreservesPerFlowOrder(t *testing.T) {
	hooks := &recordingHooks{}
	sim := BuildChain(hooks, 7,
		ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(0.9)},
		ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
		ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.7)},
	)
	sched := cbrSchedule(simtime.MPPS(0.5), simtime.Duration(2*simtime.Millisecond), testFlow(3))
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(20 * simtime.Millisecond))

	var last packet.ID
	first := true
	for _, d := range hooks.delivers {
		for _, id := range d.ids {
			if !first && id <= last {
				t.Fatalf("delivery order broken: %d after %d", id, last)
			}
			last, first = id, false
		}
	}
	if hooks.delivered() != sched.Len() {
		t.Errorf("delivered %d of %d", hooks.delivered(), sched.Len())
	}
	// Every packet should record exactly 3 hops with sane timestamps.
	for _, p := range sim.Packets() {
		if len(p.Hops) != 3 {
			t.Fatalf("hops: got %d", len(p.Hops))
		}
		for i, h := range p.Hops {
			if h.DequeueAt < h.EnqueueAt || h.DepartAt < h.DequeueAt {
				t.Fatalf("hop %d times out of order: %+v", i, h)
			}
			if i > 0 && h.EnqueueAt != p.Hops[i-1].DepartAt {
				t.Fatalf("hop %d enqueue != previous depart", i)
			}
		}
	}
}

func TestInterruptStallsNF(t *testing.T) {
	hooks := &recordingHooks{}
	sim := BuildChain(hooks, 3, ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	sched := cbrSchedule(simtime.MPPS(0.5), simtime.Duration(3*simtime.Millisecond), testFlow(4))
	sim.LoadSchedule(sched)
	intStart := simtime.Time(1 * simtime.Millisecond)
	intDur := simtime.Duration(800 * simtime.Microsecond)
	sim.InjectInterrupt("fw1", intStart, intDur, "test")
	sim.Run(simtime.Time(20 * simtime.Millisecond))

	// No batch read may start strictly inside the stall window.
	for _, r := range hooks.reads {
		if r.at > intStart && r.at < intStart.Add(intDur) {
			t.Fatalf("read at %v inside interrupt window", r.at)
		}
	}
	// Some packet must see queueing delay ~ the interrupt length.
	var maxDelay simtime.Duration
	for _, p := range sim.Packets() {
		if d := p.QueueDelayAt("fw1"); d > maxDelay {
			maxDelay = d
		}
	}
	if maxDelay < intDur/2 {
		t.Errorf("max queue delay %v too small for %v interrupt", maxDelay, intDur)
	}
	st := sim.NF("fw1").Stats()
	if st.StallTime < intDur-simtime.Duration(simtime.Microsecond) {
		t.Errorf("stall time %v, want ~%v", st.StallTime, intDur)
	}
	if len(sim.Truth().Interrupts) != 1 {
		t.Error("interrupt not recorded in ground truth")
	}
}

func TestBugSlowsMatchingFlows(t *testing.T) {
	hooks := &recordingHooks{}
	sim := BuildChain(hooks, 5, ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	bugFlow := testFlow(9)
	sim.InjectBug("fw1", &SlowPath{
		Match: func(ft packet.FiveTuple) bool { return ft == bugFlow },
		Rate:  simtime.PPS(10_000),
	}, "slow flow 9")

	sched := cbrSchedule(simtime.MPPS(0.3), simtime.Duration(2*simtime.Millisecond), testFlow(1))
	sched.InjectFlow(bugFlow, simtime.Time(500*simtime.Microsecond), 10, simtime.Duration(10*simtime.Microsecond), 64)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(50 * simtime.Millisecond))

	var bugServ, bgServ simtime.Duration
	var bugN, bgN int
	for _, p := range sim.Packets() {
		h := p.HopAt("fw1")
		if h == nil {
			continue
		}
		// Batch-level departure: measure enqueue->depart as a proxy.
		d := h.DepartAt.Sub(h.DequeueAt)
		if p.Flow == bugFlow {
			bugServ += d
			bugN++
		} else {
			bgServ += d
			bgN++
		}
	}
	if bugN == 0 || bgN == 0 {
		t.Fatal("missing packets")
	}
	if bugServ/simtime.Duration(bugN) < 10*bgServ/simtime.Duration(bgN) {
		t.Errorf("bug flow not clearly slower: bug %v vs bg %v",
			bugServ/simtime.Duration(bugN), bgServ/simtime.Duration(bgN))
	}
	if len(sim.Truth().Bugs) != 1 {
		t.Error("bug not in ground truth")
	}
}

func TestFlowHashRouteSplitsTraffic(t *testing.T) {
	route := FlowHashRoute(4)
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		p := &packet.Packet{Flow: testFlow(i)}
		counts[route(p)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("output %d unused", i)
		}
	}
	// Same flow always routes the same way.
	p := &packet.Packet{Flow: testFlow(1)}
	first := route(p)
	for i := 0; i < 10; i++ {
		if route(p) != first {
			t.Fatal("route not deterministic")
		}
	}
}

func TestEvalTopologyEndToEnd(t *testing.T) {
	hooks := &recordingHooks{}
	topo := BuildEvalTopology(hooks, EvalTopologyConfig{Seed: 42})
	if len(topo.AllNFs()) != 16 {
		t.Fatalf("16 NFs expected, got %d", len(topo.AllNFs()))
	}
	mix := traffic.NewMix(traffic.MixConfig{Flows: 512, Seed: 7})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate:     simtime.MPPS(1.0),
		Duration: simtime.Duration(5 * simtime.Millisecond),
		Seed:     11,
	})
	topo.Sim.LoadSchedule(sched)
	topo.Sim.Run(simtime.Time(100 * simtime.Millisecond))

	delivered := hooks.delivered()
	dropped := 0
	for _, d := range hooks.drops {
		dropped += d.n
	}
	if delivered+dropped != sched.Len() {
		t.Errorf("conservation: %d+%d != %d", delivered, dropped, sched.Len())
	}
	if delivered < sched.Len()*9/10 {
		t.Errorf("too many losses in nominal run: delivered %d of %d", delivered, sched.Len())
	}
	kindOf := func(name string) string {
		if nf := topo.Sim.NF(name); nf != nil {
			return nf.Kind()
		}
		return ""
	}
	// Deliveries must all come from VPNs.
	for _, d := range hooks.delivers {
		if kindOf(d.who) != "vpn" {
			t.Fatalf("delivery from non-VPN %q", d.who)
		}
	}
	// Every delivered packet's path must be nat->fw->(mon->)?vpn.
	okPaths := 0
	for _, p := range sim0Packets(topo) {
		if p.Dropped != "" {
			continue
		}
		path := p.Path()
		if len(path) < 3 || len(path) > 4 {
			t.Fatalf("path length %d: %v", len(path), path)
		}
		if kindOf(path[0]) != "nat" || kindOf(path[1]) != "fw" || kindOf(path[len(path)-1]) != "vpn" {
			t.Fatalf("bad path: %v", path)
		}
		if len(path) == 4 && kindOf(path[2]) != "mon" {
			t.Fatalf("bad 4-hop path: %v", path)
		}
		if len(path) == 4 && p.Flow.DstPort != 80 && p.Flow.DstPort != 443 {
			t.Fatalf("non-web flow through monitor: %v %v", p.Flow, path)
		}
		okPaths++
	}
	if okPaths == 0 {
		t.Fatal("no delivered packets inspected")
	}
}

func sim0Packets(t *EvalTopology) []*packet.Packet { return t.Sim.Packets() }

func TestQueueSampling(t *testing.T) {
	hooks := &recordingHooks{}
	sim := BuildChain(hooks, 3, ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.3)})
	sched := cbrSchedule(simtime.MPPS(0.6), simtime.Duration(1*simtime.Millisecond), testFlow(5))
	sim.LoadSchedule(sched)
	sim.SampleQueues(simtime.Duration(10*simtime.Microsecond), simtime.Time(3*simtime.Millisecond))
	sim.Run(simtime.Time(5 * simtime.Millisecond))
	samples := sim.QueueSamples("fw1")
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	var peak int
	for _, s := range samples {
		if s.Len > peak {
			peak = s.Len
		}
	}
	if peak == 0 {
		t.Error("overloaded queue never observed non-empty")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, simtime.Time) {
		hooks := &recordingHooks{}
		topo := BuildEvalTopology(hooks, EvalTopologyConfig{Seed: 99})
		mix := traffic.NewMix(traffic.MixConfig{Flows: 256, Seed: 3})
		sched := traffic.Generate(mix, traffic.ScheduleConfig{
			Rate:     simtime.MPPS(0.8),
			Duration: simtime.Duration(2 * simtime.Millisecond),
			Seed:     5,
		})
		topo.Sim.LoadSchedule(sched)
		topo.Sim.Run(simtime.Time(50 * simtime.Millisecond))
		return hooks.delivered(), hooks.lastDeliver
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Errorf("non-deterministic: (%d,%v) vs (%d,%v)", n1, t1, n2, t2)
	}
}

// TestLongPathKeepsEveryHop runs packets through more NFs than the hop
// capacity a new packet starts with: each packet's hops must grow on
// their own and never write into another packet's.
func TestLongPathKeepsEveryHop(t *testing.T) {
	var specs []ChainSpec
	for i := 1; i <= 6; i++ {
		specs = append(specs, ChainSpec{Name: fmt.Sprintf("nf%d", i), Kind: "fw", Rate: simtime.MPPS(2)})
	}
	sim := BuildChain(NopHooks{}, 5, specs...)
	sim.LoadSchedule(cbrSchedule(simtime.MPPS(1), simtime.Duration(simtime.Millisecond), testFlow(1)))
	sim.Run(simtime.Time(5 * simtime.Millisecond))
	if len(sim.Packets()) == 0 {
		t.Fatal("no packets")
	}
	for _, p := range sim.Packets() {
		if len(p.Hops) != len(specs) {
			t.Fatalf("packet %d: %d hops, want %d", p.ID, len(p.Hops), len(specs))
		}
		last := p.CreatedAt
		for i, h := range p.Hops {
			if h.Node != specs[i].Name {
				t.Fatalf("packet %d: hop %d at %s, want %s", p.ID, i, h.Node, specs[i].Name)
			}
			if h.EnqueueAt < last || h.DequeueAt < h.EnqueueAt || h.DepartAt < h.DequeueAt {
				t.Fatalf("packet %d: hop %d times out of order: %+v after %v", p.ID, i, h, last)
			}
			last = h.DepartAt
		}
	}
}

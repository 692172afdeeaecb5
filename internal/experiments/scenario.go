// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated substrate: the 16-NF topology of
// Figure 10, CAIDA-like traffic, injected problems with unambiguous ground
// truth, and both diagnosers (Microscope and the NetMedic baseline).
//
// Each experiment returns report.Series / report.Table values whose rows
// match the corresponding paper artifact; cmd/msbench prints them and
// bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/netmedic"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// InjKind is the class of an injected problem (§6.2).
type InjKind uint8

const (
	// InjBurst is a source traffic burst of 500–2500 packets.
	InjBurst InjKind = iota
	// InjInterrupt is a 500–1000 µs CPU interrupt at a random NF.
	InjInterrupt
	// InjBug is the firewall slow-path bug triggered by specific flows.
	InjBug
)

// String implements fmt.Stringer.
func (k InjKind) String() string {
	switch k {
	case InjBurst:
		return "burst"
	case InjInterrupt:
		return "interrupt"
	case InjBug:
		return "bug"
	default:
		return fmt.Sprintf("inj(%d)", uint8(k))
	}
}

// Injection is one injected problem with its ground truth.
type Injection struct {
	Kind InjKind
	At   simtime.Time
	// NF is the injected component for interrupts, and the buggy
	// firewall for bug triggers.
	NF string
	// Flow is the burst flow or the bug-trigger flow.
	Flow packet.FiveTuple
	// Size is the burst packet count / trigger flow length.
	Size int
	// Dur is the interrupt duration.
	Dur simtime.Duration
}

// AccuracyConfig parameterizes the §6.2 accuracy experiment.
type AccuracyConfig struct {
	Seed int64
	// Rate is the offered load (default 1.2 Mpps, §6.2).
	Rate simtime.Rate
	// SlotDur is the spacing between injections; the paper keeps
	// injections "separate enough in time so we unambiguously know the
	// ground truth" (default 20ms).
	SlotDur simtime.Duration
	// Slots is the number of injections (default 12; kinds rotate).
	Slots int
	// Kinds restricts the injected kinds (default all three).
	Kinds []InjKind
	// InterruptNFs restricts where interrupts land (default: any NF).
	InterruptNFs []string

	// BurstMin/BurstMax bound burst sizes (default 500–2500, §6.2).
	BurstMin, BurstMax int
	// IntMin/IntMax bound interrupt durations (default 500–1000 µs).
	IntMin, IntMax simtime.Duration
	// BugRate is the slow-path rate (default 0.05 Mpps).
	BugRate simtime.Rate
	// BugFlowMin/Max bound trigger flow sizes (default 50–150 packets).
	BugFlowMin, BugFlowMax int

	// Flows sizes the background mix (default 2048).
	Flows int
	// Topology overrides the default evaluation topology config.
	Topology nfsim.EvalTopologyConfig
	// MaxVictims caps diagnosed victims (default 400) to bound runtime.
	MaxVictims int
	// NetMedicWindow sets the baseline window (default 10ms).
	NetMedicWindow simtime.Duration
	// Workers bounds the per-victim diagnosis fan-out (0 = GOMAXPROCS,
	// 1 = sequential); results are identical for any value.
	Workers int
}

func (c *AccuracyConfig) setDefaults() {
	if c.Rate == 0 {
		c.Rate = simtime.MPPS(1.2)
	}
	if c.SlotDur == 0 {
		c.SlotDur = 20 * simtime.Millisecond
	}
	if c.Slots == 0 {
		c.Slots = 12
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []InjKind{InjBurst, InjInterrupt, InjBug}
	}
	if c.BurstMin == 0 {
		c.BurstMin = 500
	}
	if c.BurstMax == 0 {
		c.BurstMax = 2500
	}
	if c.IntMin == 0 {
		c.IntMin = 500 * simtime.Microsecond
	}
	if c.IntMax == 0 {
		c.IntMax = 1000 * simtime.Microsecond
	}
	if c.BugRate == 0 {
		c.BugRate = simtime.MPPS(0.05)
	}
	if c.BugFlowMin == 0 {
		c.BugFlowMin = 50
	}
	if c.BugFlowMax == 0 {
		c.BugFlowMax = 150
	}
	if c.Flows == 0 {
		c.Flows = 2048
	}
	if c.MaxVictims == 0 {
		c.MaxVictims = 400
	}
	if c.NetMedicWindow == 0 {
		c.NetMedicWindow = 10 * simtime.Millisecond
	}
	// Keep natural fine-timescale noise present but subordinate to the
	// injections, as the paper does ("we generate the CAIDA traffic at a
	// moderate rate so that other problems are much less significant and
	// frequent than the injected ones", §6.2).
	if c.Topology.JitterFrac == 0 {
		c.Topology.JitterFrac = 0.04
	}
	if c.Topology.SpikeProb == 0 {
		c.Topology.SpikeProb = 0.0002
	}
	if c.Topology.SpikeFactor == 0 {
		c.Topology.SpikeFactor = 25
	}
}

// VictimOutcome records, per diagnosed victim, where the true cause landed
// in each tool's ranking.
type VictimOutcome struct {
	Kind InjKind
	// MicroRank / NetRank are 1-based ranks of the injected cause
	// (0 = not present in the ranking).
	MicroRank int
	NetRank   int
	// Hops is how many NF hops separate the injected problem from the
	// victim component (0 = same NF; bursts count from the source).
	Hops int
	// Gap is victim time minus injection time.
	Gap simtime.Duration
}

// AccuracyRun is the shared §6.2 scenario output.
type AccuracyRun struct {
	Config     AccuracyConfig
	Injections []Injection
	Outcomes   []VictimOutcome
	// Victims/Diags/Store are retained for follow-on analyses
	// (window sweeps re-rank the same victims).
	Victims []core.Victim
	Diags   []core.Diagnosis
	Store   *tracestore.Store
}

// bugTriggerFlow fabricates a flow that the topology routes through the
// buggy firewall.
func bugTriggerFlow(topo *nfsim.EvalTopology, fw string, rng *rand.Rand) packet.FiveTuple {
	for {
		ft := packet.FiveTuple{
			SrcIP:   packet.IPFromOctets(100, 0, 0, byte(1+rng.Intn(250))),
			DstIP:   packet.IPFromOctets(32, 0, 0, byte(1+rng.Intn(250))),
			SrcPort: uint16(2000 + rng.Intn(9)),
			DstPort: uint16(6000 + rng.Intn(9)),
			Proto:   packet.ProtoTCP,
		}
		if topo.FirewallOf(ft) == fw {
			return ft
		}
	}
}

// RunAccuracy executes the §6.2 scenario: background traffic plus rotating
// injections, then diagnoses every victim with Microscope and NetMedic and
// scores both against ground truth.
func RunAccuracy(cfg AccuracyConfig) *AccuracyRun {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))

	col := collector.New(collector.Config{})
	topoCfg := cfg.Topology
	topoCfg.Seed = cfg.Seed
	topo := nfsim.BuildEvalTopology(col, topoCfg)
	sim := topo.Sim

	// The §6.4 bug lives at firewall 2 and is triggered by flows with
	// the paper's port signature.
	bugFW := topo.Firewalls[1]
	isTrigger := func(ft packet.FiveTuple) bool {
		return ft.SrcIP>>24 == 100 &&
			ft.SrcPort >= 2000 && ft.SrcPort <= 2008 &&
			ft.DstPort >= 6000 && ft.DstPort <= 6008
	}
	sim.InjectBug(bugFW, &nfsim.SlowPath{Match: isTrigger, Rate: cfg.BugRate}, "fw slow path")

	mix := traffic.NewMix(traffic.MixConfig{Flows: cfg.Flows, Seed: cfg.Seed + 2})
	total := simtime.Duration(cfg.Slots) * cfg.SlotDur
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate:     cfg.Rate,
		Duration: total,
		Seed:     cfg.Seed + 3,
	})

	// One injection per slot, at a random offset in the slot's second
	// quarter — random, as real problems are, so injections do not
	// systematically align with anyone's correlation windows, while
	// still leaving the rest of the slot for the impact to play out.
	var injections []Injection
	allNFs := topo.AllNFs()
	for s := 0; s < cfg.Slots; s++ {
		off := cfg.SlotDur/4 + simtime.Duration(rng.Int63n(int64(cfg.SlotDur/4)))
		at := simtime.Time(simtime.Duration(s)*cfg.SlotDur + off)
		kind := cfg.Kinds[s%len(cfg.Kinds)]
		switch kind {
		case InjBurst:
			flow := mix.Flows[rng.Intn(len(mix.Flows))].Tuple
			size := cfg.BurstMin + rng.Intn(cfg.BurstMax-cfg.BurstMin+1)
			sched.InjectBurst(traffic.BurstSpec{
				ID: int32(s), At: at, Flow: flow, Count: size,
			})
			injections = append(injections, Injection{Kind: InjBurst, At: at, Flow: flow, Size: size})
		case InjInterrupt:
			candidates := allNFs
			if len(cfg.InterruptNFs) > 0 {
				candidates = cfg.InterruptNFs
			}
			nf := candidates[rng.Intn(len(candidates))]
			dur := cfg.IntMin + simtime.Duration(rng.Int63n(int64(cfg.IntMax-cfg.IntMin+1)))
			sim.InjectInterrupt(nf, at, dur, fmt.Sprintf("slot%d", s))
			injections = append(injections, Injection{Kind: InjInterrupt, At: at, NF: nf, Dur: dur})
		case InjBug:
			flow := bugTriggerFlow(topo, bugFW, rng)
			size := cfg.BugFlowMin + rng.Intn(cfg.BugFlowMax-cfg.BugFlowMin+1)
			sched.InjectFlow(flow, at, size, 5*simtime.Microsecond, 64)
			injections = append(injections, Injection{Kind: InjBug, At: at, NF: bugFW, Flow: flow, Size: size})
		}
	}

	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(total) + simtime.Time(50*simtime.Millisecond))

	st := tracestore.Build(col.Trace(collector.MetaOf(topo.Sim)))

	eng := core.NewEngine(core.Config{MaxVictims: cfg.MaxVictims, Workers: cfg.Workers})
	// Victim selection is per injection slot: each injected problem's
	// victims are the worst-latency packets within its slot. A single
	// global percentile would let the most violent injection class
	// (bursts) monopolize the victim set — the paper instead evaluates
	// the victims of each injected problem ("we make sure the injected
	// problems are separate enough in time so we unambiguously know the
	// ground truth").
	perSlot := cfg.MaxVictims / len(injections)
	if perSlot < 10 {
		perSlot = 10
	}
	victims := selectSlotVictims(st, injections, cfg.SlotDur, perSlot)
	diags := eng.DiagnoseVictims(st, victims)

	nm := netmedic.New(st, netmedic.Config{Window: cfg.NetMedicWindow})
	nmRes := nm.Diagnose(victims)

	run := &AccuracyRun{
		Config:     cfg,
		Injections: injections,
		Victims:    victims,
		Diags:      diags,
		Store:      st,
	}
	for i := range victims {
		inj := associate(injections, victims[i].ArriveAt, cfg.SlotDur)
		if inj == nil {
			continue
		}
		oc := VictimOutcome{
			Kind:      inj.Kind,
			MicroRank: microRank(&diags[i], inj),
			NetRank:   nmRes[i].RankOf(netMedicCulprit(inj)),
			Hops:      hopsBetween(st, &victims[i], inj),
			Gap:       victims[i].ArriveAt.Sub(inj.At),
		}
		run.Outcomes = append(run.Outcomes, oc)
	}
	return run
}

// impactHorizon bounds how long after an injection its victims can arrive:
// the injected event itself (≤1 ms) plus the queues it built draining
// (a few ms at the evaluation rates). Packets beyond the horizon are tail
// latency from unrelated causes, and counting them against the injection
// would corrupt the ground truth — the paper spaces injections precisely so
// victim attribution is unambiguous.
const impactHorizon = 5 * simtime.Millisecond

// selectSlotVictims picks, for every injection, the worst-latency packets
// emitted within its impact horizon (99th percentile, evenly sampled to
// perSlot), each diagnosed at the hop where it queued longest.
func selectSlotVictims(st *tracestore.Store, injs []Injection, slot simtime.Duration, perSlot int) []core.Victim {
	window := slot
	if window > impactHorizon {
		window = impactHorizon
	}
	var out []core.Victim
	for ii := range injs {
		inj := &injs[ii]
		var lats []float64
		for i := range st.Journeys {
			j := &st.Journeys[i]
			if !j.Delivered || j.EmittedAt < inj.At || j.EmittedAt.Sub(inj.At) > window {
				continue
			}
			lats = append(lats, float64(j.Latency()))
		}
		if len(lats) == 0 {
			continue
		}
		threshold := percentile99(lats)
		var slotVictims []core.Victim
		for i := range st.Journeys {
			j := &st.Journeys[i]
			if !j.Delivered || j.EmittedAt < inj.At || j.EmittedAt.Sub(inj.At) > window {
				continue
			}
			if float64(j.Latency()) < threshold {
				continue
			}
			if v, ok := worstHopVictim(st, i, j); ok {
				slotVictims = append(slotVictims, v)
			}
		}
		if len(slotVictims) > perSlot {
			sampled := make([]core.Victim, 0, perSlot)
			step := float64(len(slotVictims)) / float64(perSlot)
			for k := 0; k < perSlot; k++ {
				sampled = append(sampled, slotVictims[int(float64(k)*step)])
			}
			slotVictims = sampled
		}
		out = append(out, slotVictims...)
	}
	return out
}

func percentile99(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// worstHopVictim builds a Victim at the journey's longest-queuing hop.
func worstHopVictim(st *tracestore.Store, idx int, j *tracestore.Journey) (core.Victim, bool) {
	var best *tracestore.JourneyHop
	var bestDelay simtime.Duration = -1
	for h := range j.Hops {
		hop := &j.Hops[h]
		if hop.ReadAt == 0 {
			continue
		}
		if d := hop.ReadAt.Sub(hop.ArriveAt); d > bestDelay {
			bestDelay = d
			best = hop
		}
	}
	if best == nil {
		return core.Victim{}, false
	}
	return core.Victim{
		Journey:    idx,
		Comp:       st.CompName(best.Comp),
		ArriveAt:   best.ArriveAt,
		QueueDelay: bestDelay,
		Kind:       core.VictimLatency,
		Tuple:      j.Tuple,
		HasTuple:   j.HasTuple,
	}, true
}

// associate maps a victim to the injection whose slot covers it: the latest
// injection at or before the victim, within one slot duration.
func associate(injs []Injection, t simtime.Time, slot simtime.Duration) *Injection {
	var best *Injection
	for i := range injs {
		if injs[i].At <= t && t.Sub(injs[i].At) <= slot {
			if best == nil || injs[i].At > best.At {
				best = &injs[i]
			}
		}
	}
	return best
}

// microRank finds the rank of the injected cause in a Microscope diagnosis.
func microRank(d *core.Diagnosis, inj *Injection) int {
	switch inj.Kind {
	case InjBurst:
		return d.RankOf(func(c core.Cause) bool {
			return c.Comp == collector.SourceName && c.Kind == core.CulpritSourceTraffic
		})
	default: // interrupt, bug: local processing at the injected NF
		return d.RankOf(func(c core.Cause) bool {
			return c.Comp == inj.NF && c.Kind == core.CulpritLocalProcessing
		})
	}
}

// netMedicCulprit names the component NetMedic should have ranked first.
func netMedicCulprit(inj *Injection) string {
	if inj.Kind == InjBurst {
		return collector.SourceName
	}
	return inj.NF
}

// hopsBetween counts NF hops from the injected component to the victim
// component along the victim's path (bursts originate at the source).
func hopsBetween(st *tracestore.Store, v *core.Victim, inj *Injection) int {
	j := &st.Journeys[v.Journey]
	from := inj.NF
	if inj.Kind == InjBurst {
		from = collector.SourceName
	}
	// Position of the victim comp on the journey.
	vID, fromID := st.CompIDOf(v.Comp), st.CompIDOf(from)
	vPos := -1
	for i := range j.Hops {
		if j.Hops[i].Comp == vID {
			vPos = i
			break
		}
	}
	if vPos < 0 {
		return 0
	}
	if from == collector.SourceName {
		return vPos + 1
	}
	for i := 0; i <= vPos; i++ {
		if j.Hops[i].Comp == fromID {
			return vPos - i
		}
	}
	// Culprit not on the victim's path (cross-traffic interference):
	// count as one hop of propagation.
	return 1
}

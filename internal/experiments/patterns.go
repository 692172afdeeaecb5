package experiments

import (
	"time"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/patterns"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// Figure14Config parameterizes the §6.4 pattern-aggregation experiment.
type Figure14Config struct {
	Seed int64
	// Rate is the background load (default 1.2 Mpps, §6.4).
	Rate simtime.Rate
	// Duration of the run (default 200 ms).
	Duration simtime.Duration
	// Threshold is the aggregation threshold (default 1%, §6.1).
	Threshold float64
	// Flows sizes the background mix.
	Flows int
	// TriggerBatches is how many bug-trigger flow episodes to inject.
	TriggerBatches int
	// Topology overrides the evaluation topology.
	Topology nfsim.EvalTopologyConfig
}

func (c *Figure14Config) setDefaults() {
	if c.Rate == 0 {
		c.Rate = simtime.MPPS(1.2)
	}
	if c.Duration == 0 {
		c.Duration = 200 * simtime.Millisecond
	}
	if c.Threshold == 0 {
		c.Threshold = 0.01
	}
	if c.Flows == 0 {
		c.Flows = 2048
	}
	if c.TriggerBatches == 0 {
		c.TriggerBatches = 6
	}
}

// Figure14Result is the §6.4 output: the aggregated causal patterns plus
// the bookkeeping the paper reports (84K relations → 80 patterns, ~3 min).
type Figure14Result struct {
	Patterns  []patterns.Pattern
	Relations int
	// TriggerPatterns counts patterns whose culprit aggregate covers a
	// bug-trigger flow at the buggy firewall (the paper found 4).
	TriggerPatterns int
	// AggregationTime is the wall-clock aggregation cost.
	AggregationTime time.Duration
	// Rendered is the Figure 14 style listing of the top patterns.
	Rendered string
	BugFW    string
}

// Figure14 runs the §6.4 experiment: background traffic plus intermittent
// bug-trigger flows into the buggy firewall, full diagnosis, then pattern
// aggregation; it verifies the trigger flows surface in the report.
func Figure14(cfg Figure14Config) *Figure14Result {
	cfg.setDefaults()
	col := collector.New(collector.Config{})
	topoCfg := cfg.Topology
	topoCfg.Seed = cfg.Seed
	topo := nfsim.BuildEvalTopology(col, topoCfg)
	sim := topo.Sim

	bugFW := topo.Firewalls[1]
	// The paper's trigger signature: TCP 100.0.0.1 -> 32.0.0.1, source
	// ports 2000-2008, destination ports 6000-6008.
	isTrigger := func(ft packet.FiveTuple) bool {
		return ft.SrcIP == packet.IPFromOctets(100, 0, 0, 1) &&
			ft.DstIP == packet.IPFromOctets(32, 0, 0, 1) &&
			ft.SrcPort >= 2000 && ft.SrcPort <= 2008 &&
			ft.DstPort >= 6000 && ft.DstPort <= 6008
	}
	sim.InjectBug(bugFW, &nfsim.SlowPath{Match: isTrigger, Rate: simtime.MPPS(0.05)}, "fw bug")

	mix := traffic.NewMix(traffic.MixConfig{Flows: cfg.Flows, Seed: cfg.Seed + 1})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate: cfg.Rate, Duration: cfg.Duration, Seed: cfg.Seed + 2,
	})
	// Intermittent trigger episodes: port pairs (2000,6000)..(2008,6008)
	// rotating; flows must actually route through the buggy firewall.
	var triggers []packet.FiveTuple
	for i := 0; i < 9; i++ {
		ft := packet.FiveTuple{
			SrcIP:   packet.IPFromOctets(100, 0, 0, 1),
			DstIP:   packet.IPFromOctets(32, 0, 0, 1),
			SrcPort: uint16(2000 + i),
			DstPort: uint16(6000 + i),
			Proto:   packet.ProtoTCP,
		}
		if topo.FirewallOf(ft) == bugFW {
			triggers = append(triggers, ft)
		}
	}
	if len(triggers) == 0 {
		// Salted hashes spread the nine pairs across firewalls; at
		// least one lands on fw2 with overwhelming probability, but
		// fall back to redirecting the bug to a covered firewall.
		ft := packet.FiveTuple{
			SrcIP: packet.IPFromOctets(100, 0, 0, 1), DstIP: packet.IPFromOctets(32, 0, 0, 1),
			SrcPort: 2004, DstPort: 6004, Proto: packet.ProtoTCP,
		}
		bugFW = topo.FirewallOf(ft)
		sim.InjectBug(bugFW, &nfsim.SlowPath{Match: isTrigger, Rate: simtime.MPPS(0.05)}, "fw bug")
		triggers = append(triggers, ft)
	}
	gap := simtime.Duration(cfg.Duration) / simtime.Duration(cfg.TriggerBatches+1)
	for b := 0; b < cfg.TriggerBatches; b++ {
		ft := triggers[b%len(triggers)]
		at := simtime.Time(simtime.Duration(b+1) * gap)
		sched.InjectFlow(ft, at, 60, 5*simtime.Microsecond, 64)
	}

	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(cfg.Duration) + simtime.Time(50*simtime.Millisecond))

	st := tracestore.Build(col.Trace(collector.MetaOf(topo.Sim)))
	diags := core.NewEngine(core.Config{MaxVictims: 1500}).Diagnose(st)

	pcfg := patterns.Config{Threshold: cfg.Threshold}
	rels := patterns.RelationsFromDiagnoses(st, diags, pcfg)
	start := time.Now() //mslint:allow nondet figure 14 reports AutoFocus wall time; the pattern list itself is trace-derived
	pats := patterns.Aggregate(rels, pcfg)
	elapsed := time.Since(start) //mslint:allow nondet figure 14 reports AutoFocus wall time; the pattern list itself is trace-derived

	res := &Figure14Result{
		Patterns:        pats,
		Relations:       rels.Len(),
		AggregationTime: elapsed,
		BugFW:           bugFW,
	}
	for _, p := range pats {
		nfOK := p.CulpritNF.Name == bugFW || (p.CulpritNF.Name == "" && p.CulpritNF.Kind == "fw")
		if !nfOK {
			continue
		}
		for _, tft := range triggers {
			if p.CulpritFlow.SrcLen >= 24 && p.CulpritFlow.Matches(tft) {
				res.TriggerPatterns++
				break
			}
		}
	}
	limit := len(pats)
	if limit > 20 {
		limit = 20
	}
	res.Rendered = patterns.Render(pats[:limit])
	return res
}

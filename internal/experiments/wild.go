package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/nfsim"
	"microscope/internal/report"
	"microscope/internal/simtime"
	"microscope/internal/stats"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// WildConfig parameterizes the §6.5 "running in the wild" study: high load,
// no injected problems, diagnose the worst-latency packets.
type WildConfig struct {
	Seed int64
	// Rate is the offered load (default 1.6 Mpps, §6.5).
	Rate simtime.Rate
	// Duration of the run (default 300 ms; the paper ran one minute on
	// hardware — the shape, not the sample count, is what reproduces).
	Duration simtime.Duration
	// VictimPercentile selects victims (default 99.9, §6.5).
	VictimPercentile float64
	// Flows sizes the traffic mix.
	Flows int
	// MaxVictims caps diagnosed victims (default 2000).
	MaxVictims int
	// Topology overrides the evaluation topology.
	Topology nfsim.EvalTopologyConfig
	// NoNaturalEvents disables the background OS-level events (long
	// interrupts, microbursts) that a real testbed exhibits and §6.5
	// relies on ("diverse types of problems emerge at the high load").
	NoNaturalEvents bool
	// Workers bounds the per-victim diagnosis fan-out (0 = GOMAXPROCS,
	// 1 = sequential); results are identical for any value.
	Workers int
}

func (c *WildConfig) setDefaults() {
	if c.Rate == 0 {
		c.Rate = simtime.MPPS(1.6)
	}
	if c.Duration == 0 {
		c.Duration = 300 * simtime.Millisecond
	}
	if c.VictimPercentile == 0 {
		c.VictimPercentile = 99.5
	}
	if c.Flows == 0 {
		c.Flows = 4096
	}
	if c.MaxVictims == 0 {
		c.MaxVictims = 2000
	}
	// The wild study needs frequent but TRANSIENT natural problems:
	// enough headroom that queues drain between episodes (otherwise one
	// never-ending queuing period degenerates every gap measurement —
	// the paper's §7 "queue not empty in most cases" caveat), and more
	// fine-timescale service spikes so problems arise without injection.
	if c.Topology.VPNRate == 0 {
		c.Topology.VPNRate = simtime.MPPS(0.55)
	}
	if c.Topology.MonitorRate == 0 {
		c.Topology.MonitorRate = simtime.MPPS(0.45)
	}
	if c.Topology.NATRate == 0 {
		c.Topology.NATRate = simtime.MPPS(0.6)
	}
	if c.Topology.FirewallRate == 0 {
		c.Topology.FirewallRate = simtime.MPPS(0.5)
	}
	if c.Topology.SpikeProb == 0 {
		c.Topology.SpikeProb = 0.0005
	}
	if c.Topology.SpikeFactor == 0 {
		c.Topology.SpikeFactor = 80
	}
}

// WildRun is the shared §6.5 output consumed by Figure 15 and Tables 2/3.
type WildRun struct {
	Config WildConfig
	Store  *tracestore.Store
	Diags  []core.Diagnosis
	Topo   *nfsim.EvalTopology
}

// RunWild executes the §6.5 scenario.
func RunWild(cfg WildConfig) *WildRun {
	cfg.setDefaults()
	col := collector.New(collector.Config{})
	topoCfg := cfg.Topology
	topoCfg.Seed = cfg.Seed
	topo := nfsim.BuildEvalTopology(col, topoCfg)

	mix := traffic.NewMix(traffic.MixConfig{Flows: cfg.Flows, Seed: cfg.Seed + 1})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate:     cfg.Rate,
		Duration: cfg.Duration,
		Seed:     cfg.Seed + 2,
	})
	if !cfg.NoNaturalEvents {
		// A real deployment's background events: OS interrupts of
		// varying length at random NFs every ~25 ms, and source-side
		// microbursts every ~20 ms. These are "the wild", not scored
		// injections — they are what Microscope is asked to explain.
		rng := rand.New(rand.NewSource(cfg.Seed + 9))
		nfs := topo.AllNFs()
		for at := simtime.Time(3 * simtime.Millisecond); at < simtime.Time(cfg.Duration); at = at.Add(3*simtime.Millisecond + simtime.Duration(rng.Int63n(int64(4*simtime.Millisecond)))) {
			nf := nfs[rng.Intn(len(nfs))]
			dur := 100*simtime.Microsecond + simtime.Duration(rng.Int63n(int64(700*simtime.Microsecond)))
			topo.Sim.InjectInterrupt(nf, at, dur, "wild")
		}
		for at := simtime.Time(31 * simtime.Millisecond); at < simtime.Time(cfg.Duration); at = at.Add(55*simtime.Millisecond + simtime.Duration(rng.Int63n(int64(25*simtime.Millisecond)))) {
			flow := mix.Flows[rng.Intn(len(mix.Flows))].Tuple
			sched.InjectBurst(traffic.BurstSpec{
				ID:    int32(at / 1000),
				At:    at,
				Flow:  flow,
				Count: 200 + rng.Intn(500),
			})
		}
		// Rare long stalls (scheduler preemption, page reclaim): these
		// build queues that take tens of milliseconds to drain and give
		// the Figure 15 gap distribution its long tail.
		for at := simtime.Time(47 * simtime.Millisecond); at < simtime.Time(cfg.Duration); at = at.Add(90*simtime.Millisecond + simtime.Duration(rng.Int63n(int64(60*simtime.Millisecond)))) {
			nf := nfs[rng.Intn(len(nfs))]
			dur := 3*simtime.Millisecond + simtime.Duration(rng.Int63n(int64(5*simtime.Millisecond)))
			topo.Sim.InjectInterrupt(nf, at, dur, "wild-long")
		}
	}
	topo.Sim.LoadSchedule(sched)
	topo.Sim.Run(simtime.Time(cfg.Duration) + simtime.Time(50*simtime.Millisecond))

	st := tracestore.Build(col.Trace(collector.MetaOf(topo.Sim)))

	eng := core.NewEngine(core.Config{
		VictimPercentile: cfg.VictimPercentile,
		MaxVictims:       cfg.MaxVictims,
		Workers:          cfg.Workers,
	})
	diags := eng.Diagnose(st)
	return &WildRun{Config: cfg, Store: st, Diags: diags, Topo: topo}
}

// Figure15Result is the CDF of culprit→victim time gaps.
type Figure15Result struct {
	CDF *report.Series
	// MedianGap and MaxGap summarize the distribution; the paper reports
	// a median near 1.5 ms and a tail reaching 91 ms.
	MedianGap simtime.Duration
	MaxGap    simtime.Duration
}

// Figure15 computes the time-gap CDF over every causal relation of a wild
// run (paper Fig. 15).
func Figure15(run *WildRun) *Figure15Result {
	var gaps []float64
	for i := range run.Diags {
		d := &run.Diags[i]
		for _, c := range d.Causes {
			gap := d.Victim.ArriveAt.Sub(c.At)
			if gap < 0 {
				gap = 0
			}
			gaps = append(gaps, gap.Millis())
		}
	}
	res := &Figure15Result{
		CDF: &report.Series{Name: "culprit-victim time gap", XLabel: "gap (ms)", YLabel: "CDF"},
	}
	for _, p := range stats.CDF(gaps) {
		res.CDF.Add(p.X, p.F)
	}
	res.MedianGap = simtime.FromSeconds(stats.Percentile(gaps, 50) / 1000)
	res.MaxGap = simtime.FromSeconds(stats.Percentile(gaps, 100) / 1000)
	return res
}

// kindOrder fixes the row/column order of Tables 2 and 3.
var kindOrder = []string{"source", "nat", "fw", "mon", "vpn"}

func kindLabel(k string) string {
	switch k {
	case "source":
		return "Traffic sources"
	case "nat":
		return "NAT"
	case "fw":
		return "Firewall"
	case "mon":
		return "Monitor"
	case "vpn":
		return "VPN"
	default:
		return k
	}
}

// Table2Result is the culprit-type × victim-type breakdown.
type Table2Result struct {
	Table *report.Table
	// Propagated is the fraction of victims whose top culprit lives at a
	// different NF than the victim (paper: 21.7%).
	Propagated float64
	// MultiHop is the fraction propagated across at least two hops.
	MultiHop float64
}

// Table2 computes the §6.5 breakdown of problems by culprit and victim NF
// type (paper Table 2), using each victim's top-ranked cause.
func Table2(run *WildRun) *Table2Result {
	counts := make(map[[2]string]int) // [culpritKind, victimKind]
	total, propagated, multihop := 0, 0, 0
	for i := range run.Diags {
		d := &run.Diags[i]
		if len(d.Causes) == 0 {
			continue
		}
		top := d.Causes[0]
		ck := run.Store.KindOf(top.Comp)
		vk := run.Store.KindOf(d.Victim.Comp)
		counts[[2]string{ck, vk}]++
		total++
		if top.Comp != d.Victim.Comp {
			propagated++
			if hops := pathDistance(run.Store, d.Victim.Journey, top.Comp, d.Victim.Comp); hops >= 2 {
				multihop++
			}
		}
	}
	tbl := &report.Table{
		Title: "Breakdown of problem frequencies (culprit rows x victim columns)",
		Cols:  []string{"culprit \\ victim", "NAT", "Firewall", "Monitor", "VPN"},
	}
	for _, ck := range kindOrder {
		row := []string{kindLabel(ck)}
		for _, vk := range []string{"nat", "fw", "mon", "vpn"} {
			f := 0.0
			if total > 0 {
				f = float64(counts[[2]string{ck, vk}]) / float64(total)
			}
			row = append(row, report.Pct(f))
		}
		tbl.AddRow(row...)
	}
	res := &Table2Result{Table: tbl}
	if total > 0 {
		res.Propagated = float64(propagated) / float64(total)
		res.MultiHop = float64(multihop) / float64(total)
	}
	return res
}

// pathDistance counts hops between two components along a journey (source
// counts as one hop before the first NF).
func pathDistance(st *tracestore.Store, journey int, from, to string) int {
	if journey < 0 || journey >= len(st.Journeys) {
		return 1
	}
	j := &st.Journeys[journey]
	pos := func(c string) int {
		if c == collector.SourceName {
			return -1
		}
		id := st.CompIDOf(c)
		for i := range j.Hops {
			if j.Hops[i].Comp == id {
				return i
			}
		}
		return -2
	}
	pf, pt := pos(from), pos(to)
	if pf == -2 || pt == -2 {
		return 1 // culprit off-path: cross-traffic, count as one hop
	}
	d := pt - pf
	if d < 0 {
		d = -d
	}
	return d
}

// Table3Result is the per-NAT-instance culprit breakdown.
type Table3Result struct {
	Table *report.Table
	// Spread is max/min of per-NAT culprit totals — the unevenness the
	// paper highlights (NAT1/NAT3 cause more problems than NAT2/NAT4
	// despite even traffic).
	Spread float64
}

// Table3 computes the §6.5 per-NAT-instance frequency table (paper
// Table 3).
func Table3(run *WildRun) *Table3Result {
	counts := make(map[string]map[string]int)
	total := 0
	for i := range run.Diags {
		d := &run.Diags[i]
		if len(d.Causes) == 0 {
			continue
		}
		total++
		top := d.Causes[0]
		if run.Store.KindOf(top.Comp) != "nat" {
			continue
		}
		m := counts[top.Comp]
		if m == nil {
			m = make(map[string]int)
			counts[top.Comp] = m
		}
		m[run.Store.KindOf(d.Victim.Comp)]++
	}
	tbl := &report.Table{
		Title: "Problems caused by each NAT instance",
		Cols:  []string{"culprit \\ victim", "NAT", "Firewall", "Monitor", "VPN"},
	}
	nats := make([]string, 0, len(counts))
	for n := range counts {
		nats = append(nats, n)
	}
	sort.Strings(nats)
	minTot, maxTot := -1.0, 0.0
	for _, n := range run.Topo.NATs {
		row := []string{n}
		rowTotal := 0
		for _, vk := range []string{"nat", "fw", "mon", "vpn"} {
			c := 0
			if m := counts[n]; m != nil {
				c = m[vk]
			}
			rowTotal += c
			f := 0.0
			if total > 0 {
				f = float64(c) / float64(total)
			}
			row = append(row, report.Pct(f))
		}
		tbl.AddRow(row...)
		rt := float64(rowTotal)
		if minTot < 0 || rt < minTot {
			minTot = rt
		}
		if rt > maxTot {
			maxTot = rt
		}
	}
	res := &Table3Result{Table: tbl}
	if minTot > 0 {
		res.Spread = maxTot / minTot
	} else if maxTot > 0 {
		res.Spread = maxTot
	}
	return res
}

// FmtDur formats a duration for report rows.
func FmtDur(d simtime.Duration) string { return fmt.Sprintf("%.3gms", d.Millis()) }

package experiments

import (
	"sort"

	"microscope/internal/core"
	"microscope/internal/netmedic"
	"microscope/internal/report"
	"microscope/internal/simtime"
)

// rankCurve converts per-victim ranks into the Figure 11/12 form: x =
// cumulative % of victims, y = rank needed to cover them. Victims whose
// cause never appears get a rank one past the candidate count.
func rankCurve(name string, ranks []int, missRank int) *report.Series {
	rs := make([]int, len(ranks))
	for i, r := range ranks {
		if r == 0 {
			r = missRank
		}
		rs[i] = r
	}
	sort.Ints(rs)
	s := &report.Series{Name: name, XLabel: "cum % of victims", YLabel: "rank of correct cause"}
	n := float64(len(rs))
	for i, r := range rs {
		s.Add(float64(i+1)/n*100, float64(r))
	}
	return s
}

// rank1Fraction returns the fraction of ranks equal to 1.
func rank1Fraction(ranks []int) float64 {
	if len(ranks) == 0 {
		return 0
	}
	n := 0
	for _, r := range ranks {
		if r == 1 {
			n++
		}
	}
	return float64(n) / float64(len(ranks))
}

// Figure11Result holds the overall accuracy comparison.
type Figure11Result struct {
	Microscope *report.Series
	NetMedic   *report.Series
	// MicroRank1 / NetRank1 are the headline rank-1 fractions
	// (paper: 89.7% vs 36%).
	MicroRank1, NetRank1 float64
	Victims              int
	Run                  *AccuracyRun
}

// Figure11 runs the overall diagnostic accuracy comparison (paper Fig. 11).
func Figure11(cfg AccuracyConfig) *Figure11Result {
	run := RunAccuracy(cfg)
	return figure11From(run)
}

func figure11From(run *AccuracyRun) *Figure11Result {
	var micro, net []int
	for _, oc := range run.Outcomes {
		micro = append(micro, oc.MicroRank)
		net = append(net, oc.NetRank)
	}
	const missRank = 20
	return &Figure11Result{
		Microscope: rankCurve("Microscope", micro, missRank),
		NetMedic:   rankCurve("NetMedic", net, missRank),
		MicroRank1: rank1Fraction(micro),
		NetRank1:   rank1Fraction(net),
		Victims:    len(run.Outcomes),
		Run:        run,
	}
}

// Figure12Result splits accuracy per injected culprit type.
type Figure12Result struct {
	// Curves[kind] holds the Microscope and NetMedic curves for that
	// injection kind (paper Fig. 12a/b/c).
	Curves map[InjKind][2]*report.Series
	Rank1  map[InjKind][2]float64
	Run    *AccuracyRun
}

// Figure12 runs the per-culprit-type accuracy comparison (paper Fig. 12).
func Figure12(cfg AccuracyConfig) *Figure12Result {
	run := RunAccuracy(cfg)
	return Figure12From(run)
}

// Figure12From reuses an existing accuracy run.
func Figure12From(run *AccuracyRun) *Figure12Result {
	byKind := make(map[InjKind][2][]int)
	for _, oc := range run.Outcomes {
		pair := byKind[oc.Kind]
		pair[0] = append(pair[0], oc.MicroRank)
		pair[1] = append(pair[1], oc.NetRank)
		byKind[oc.Kind] = pair
	}
	res := &Figure12Result{
		Curves: make(map[InjKind][2]*report.Series),
		Rank1:  make(map[InjKind][2]float64),
		Run:    run,
	}
	const missRank = 20
	for kind, pair := range byKind {
		res.Curves[kind] = [2]*report.Series{
			rankCurve("Microscope/"+kind.String(), pair[0], missRank),
			rankCurve("NetMedic/"+kind.String(), pair[1], missRank),
		}
		res.Rank1[kind] = [2]float64{rank1Fraction(pair[0]), rank1Fraction(pair[1])}
	}
	return res
}

// Figure13Result is the NetMedic window-size sweep.
type Figure13Result struct {
	// Sweep maps window size to NetMedic's correct (rank-1) rate.
	Series *report.Series
	// Best is the window with the highest correct rate.
	Best simtime.Duration
}

// Figure13 re-ranks the same victims with NetMedic at several window sizes
// (paper Fig. 13; windows in ms: 1, 5, 10, 50, 100).
func Figure13(cfg AccuracyConfig, windows []simtime.Duration) *Figure13Result {
	run := RunAccuracy(cfg)
	return Figure13From(run, windows)
}

// Figure13From reuses an accuracy run for the sweep.
func Figure13From(run *AccuracyRun, windows []simtime.Duration) *Figure13Result {
	if len(windows) == 0 {
		windows = []simtime.Duration{
			1 * simtime.Millisecond,
			5 * simtime.Millisecond,
			10 * simtime.Millisecond,
			50 * simtime.Millisecond,
			100 * simtime.Millisecond,
		}
	}
	s := &report.Series{Name: "NetMedic window sweep", XLabel: "window (ms)", YLabel: "correct rate"}
	var best simtime.Duration
	bestRate := -1.0
	for _, w := range windows {
		nm := netmedic.New(run.Trace, run.Store, netmedic.Config{Window: w})
		res := nm.Diagnose(run.Victims)
		var ranks []int
		for i := range run.Victims {
			inj := associate(run.Injections, run.Victims[i].ArriveAt, run.Config.SlotDur)
			if inj == nil {
				continue
			}
			ranks = append(ranks, res[i].RankOf(netMedicCulprit(inj)))
		}
		rate := rank1Fraction(ranks)
		s.Add(w.Millis(), rate)
		if rate > bestRate {
			bestRate, best = rate, w
		}
	}
	return &Figure13Result{Series: s, Best: best}
}

// SweepResult is a generic parameter sweep outcome (§6.3).
type SweepResult struct {
	Series *report.Series
}

// sweepNoise adds the concurrent fine-timescale culprits §6.3 attributes
// the accuracy decrease to: with a quiet system even a 200-packet burst is
// unambiguous; the paper's point is that SMALL injections lose to
// co-occurring natural problems.
func sweepNoise(cfg *AccuracyConfig) {
	cfg.Topology.SpikeProb = 0.004
	cfg.Topology.SpikeFactor = 60
	cfg.Topology.JitterFrac = 0.08
}

// SweepBurstSize measures Microscope's rank-1 rate against burst size
// (§6.3 "Impact of burst sizes"; paper sweeps 200–5000 packets).
func SweepBurstSize(base AccuracyConfig, sizes []int) *SweepResult {
	if len(sizes) == 0 {
		sizes = []int{200, 500, 1000, 2500, 5000}
	}
	s := &report.Series{Name: "accuracy vs burst size", XLabel: "burst packets", YLabel: "rank-1 rate"}
	for i, size := range sizes {
		cfg := base
		cfg.Seed = base.Seed + int64(i+1)*101
		cfg.Kinds = []InjKind{InjBurst}
		cfg.BurstMin, cfg.BurstMax = size, size
		sweepNoise(&cfg)
		run := RunAccuracy(cfg)
		var ranks []int
		for _, oc := range run.Outcomes {
			ranks = append(ranks, oc.MicroRank)
		}
		s.Add(float64(size), rank1Fraction(ranks))
	}
	return &SweepResult{Series: s}
}

// SweepInterruptLen measures Microscope's rank-1 rate against interrupt
// duration (§6.3 "Impact of interrupt lengths"; paper sweeps 300–1500 µs).
func SweepInterruptLen(base AccuracyConfig, lens []simtime.Duration) *SweepResult {
	if len(lens) == 0 {
		lens = []simtime.Duration{
			300 * simtime.Microsecond,
			600 * simtime.Microsecond,
			900 * simtime.Microsecond,
			1200 * simtime.Microsecond,
			1500 * simtime.Microsecond,
		}
	}
	s := &report.Series{Name: "accuracy vs interrupt length", XLabel: "interrupt (us)", YLabel: "rank-1 rate"}
	for i, l := range lens {
		cfg := base
		cfg.Seed = base.Seed + int64(i+1)*211
		cfg.Kinds = []InjKind{InjInterrupt}
		cfg.IntMin, cfg.IntMax = l, l
		sweepNoise(&cfg)
		run := RunAccuracy(cfg)
		var ranks []int
		for _, oc := range run.Outcomes {
			ranks = append(ranks, oc.MicroRank)
		}
		s.Add(l.Micros(), rank1Fraction(ranks))
	}
	return &SweepResult{Series: s}
}

// SweepHopsRun builds a run tailored for the propagation-distance study:
// large source bursts follow a single flow's path (one NAT, then one
// firewall, then one VPN), so victims arise one hop away (at the NAT), two
// hops (at the firewall fed by the NAT's drain), and three hops (at the
// VPN) — the paper classifies victims the same way by "how many hops it
// takes for the effect to propagate to the ultimate victim".
func SweepHopsRun(base AccuracyConfig) *AccuracyRun {
	cfg := base
	cfg.Kinds = []InjKind{InjBurst}
	cfg.BurstMin, cfg.BurstMax = 2500, 5000
	return RunAccuracy(cfg)
}

// SweepHops classifies victims by how far the injected problem's effect
// propagated before hurting them (§6.3 "Impact of propagation hops") and
// reports per-distance accuracy. Victim selection is stratified per hop
// distance: the paper diagnoses every victim above threshold (80K of
// them), which naturally includes the rarer multi-hop victims; under a
// victim cap the violent zero/one-hop victims would otherwise crowd them
// out entirely.
func SweepHops(run *AccuracyRun) *SweepResult {
	const perBucket = 40
	eng := core.NewEngine(core.Config{})
	type cand struct {
		v     core.Victim
		inj   *Injection
		delay simtime.Duration
	}
	byHops := make(map[int][]cand)
	for i := range run.Store.Journeys {
		j := &run.Store.Journeys[i]
		if !j.Delivered {
			continue
		}
		inj := associate(run.Injections, j.EmittedAt, impactHorizon)
		if inj == nil {
			continue
		}
		v, ok := worstHopVictim(run.Store, i, j)
		if !ok || v.QueueDelay < 50*simtime.Microsecond {
			continue
		}
		h := hopsBetween(run.Store, &v, inj)
		byHops[h] = append(byHops[h], cand{v: v, inj: inj, delay: v.QueueDelay})
	}
	s := &report.Series{Name: "accuracy vs propagation hops", XLabel: "hops", YLabel: "rank-1 rate"}
	maxH := 0
	for h := range byHops {
		if h > maxH {
			maxH = h
		}
	}
	for h := 0; h <= maxH; h++ {
		cands, ok := byHops[h]
		if !ok {
			continue
		}
		// Worst victims of this distance class first; journey index breaks
		// delay ties so the bucket truncation below is deterministic.
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].delay != cands[b].delay {
				return cands[a].delay > cands[b].delay
			}
			return cands[a].v.Journey < cands[b].v.Journey
		})
		if len(cands) > perBucket {
			cands = cands[:perBucket]
		}
		var ranks []int
		for _, c := range cands {
			d := eng.DiagnoseVictim(run.Store, c.v)
			ranks = append(ranks, microRank(&d, c.inj))
		}
		s.Add(float64(h), rank1Fraction(ranks))
	}
	return &SweepResult{Series: s}
}

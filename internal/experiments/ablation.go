package experiments

import (
	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/report"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// Ablations of the design decisions DESIGN.md calls out, beyond the paper's
// own evaluation:
//
//   - recursion depth (§4.3): does upstream recursion actually buy
//     accuracy, or would one level of propagation suffice?
//   - queue threshold (§7): when queues rarely empty, does the non-zero
//     threshold (the paper's sketched-but-unevaluated extension) restore
//     diagnosis quality?

// AblationResult is one knob sweep.
type AblationResult struct {
	Series *report.Series
}

// sourceToFW and egressRoute are the trivial routes of the single-NF
// ablation scenario.
func sourceToFW(*packet.Packet) int  { return 0 }
func egressRoute(*packet.Packet) int { return nfsim.Egress }

// AblationRecursionDepth measures Figure 11 rank-1 accuracy as the §4.3
// recursion depth cap varies. The smallest cap a core.Config reaches is 1,
// because its defaults turn a depth of 0 into the default 5. At cap 1 each
// NF a victim's input share propagates to is decomposed once, and what it
// passes further upstream is booked whole as local processing at the NF
// it reaches.
func AblationRecursionDepth(base AccuracyConfig, depths []int) *AblationResult {
	if len(depths) == 0 {
		depths = []int{1, 2, 3, 5}
	}
	// One shared run; only the diagnosis engine differs per depth.
	run := RunAccuracy(base)
	s := &report.Series{Name: "accuracy vs recursion depth", XLabel: "max depth", YLabel: "rank-1 rate"}
	for _, depth := range depths {
		eng := core.NewEngine(core.Config{MaxRecursionDepth: depth})
		var ranks []int
		for i := range run.Victims {
			inj := associate(run.Injections, run.Victims[i].ArriveAt, run.Config.SlotDur)
			if inj == nil {
				continue
			}
			d := eng.DiagnoseVictim(run.Store, run.Victims[i])
			ranks = append(ranks, microRank(&d, inj))
		}
		s.Add(float64(depth), rank1Fraction(ranks))
	}
	return &AblationResult{Series: s}
}

// StandingQueueConfig parameterizes the §7 threshold ablation scenario: an
// NF runs hot enough that its queue almost never empties, then distinct
// interrupt episodes hit it. With the zero-threshold boundary every
// episode's queuing period stretches back toward the start of the run.
type StandingQueueConfig struct {
	Seed int64
	// Episodes is the number of injected interrupts (default 6).
	Episodes int
	// Thresholds to sweep (default 0, 8, 32, 128).
	Thresholds []int
}

// AblationQueueThresholdResult reports per-threshold diagnosis quality on
// the standing-queue scenario.
type AblationQueueThresholdResult struct {
	Series *report.Series
	// MeanPeriodMs is the mean diagnosed queuing-period length per
	// threshold (parallel to Series points): the degeneracy indicator.
	MeanPeriodMs []float64
}

// AblationQueueThreshold evaluates the §7 extension on the scenario where
// the base algorithm degenerates by construction: a standing queue of ~80
// packets that never drains (offered load exactly matches the jitter-free
// peak rate), with one interrupt episode mid-run. The zero-length boundary
// makes every victim's queuing period reach back to the start of the run;
// a threshold above the standing level anchors it at the episode.
//
// Accuracy metric: the fraction of episode victims whose top cause is the
// stalled NF's local processing with an onset inside the episode's own
// impact window.
func AblationQueueThreshold(cfg StandingQueueConfig) *AblationQueueThresholdResult {
	if cfg.Episodes == 0 {
		cfg.Episodes = 1
	}
	if len(cfg.Thresholds) == 0 {
		cfg.Thresholds = []int{0, 32, 128, 512}
	}
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	// Deterministic service: offered rate == peak, so the standing
	// backlog persists exactly.
	sim.AddNF(nfsim.NFConfig{Name: "fw1", Kind: "fw", PeakRate: simtime.MPPS(0.5), Seed: cfg.Seed})
	sim.ConnectSource(sourceToFW, "fw1")
	sim.Connect("fw1", egressRoute)

	iv := simtime.MPPS(0.5).Interval() // exactly 2µs
	dur := simtime.Duration(cfg.Episodes+2) * 20 * simtime.Millisecond
	var ems []traffic.Emission
	mix := traffic.NewMix(traffic.MixConfig{Flows: 256, Seed: cfg.Seed + 1})
	rngIdx := 0
	for t := simtime.Time(0); t < simtime.Time(dur); t = t.Add(iv) {
		ems = append(ems, traffic.Emission{At: t, Flow: mix.Flows[rngIdx%len(mix.Flows)].Tuple, Size: 64, Burst: -1})
		rngIdx++
	}
	sched := &traffic.Schedule{Emissions: ems}
	// The standing backlog: 80 packets at t=0 that never drain.
	sched.InjectBurst(traffic.BurstSpec{ID: 1, At: 0, Flow: mix.Flows[0].Tuple, Count: 80})
	sim.LoadSchedule(sched)

	var episodes []simtime.Time
	for e := 0; e < cfg.Episodes; e++ {
		at := simtime.Time(simtime.Duration(e+1) * 20 * simtime.Millisecond)
		episodes = append(episodes, at)
		sim.InjectInterrupt("fw1", at, 600*simtime.Microsecond, "ablation")
	}
	sim.Run(simtime.Time(dur) + simtime.Time(100*simtime.Millisecond))
	st := tracestore.Build(col.Trace(collector.MetaOf(sim)))

	res := &AblationQueueThresholdResult{
		Series: &report.Series{Name: "accuracy vs queue threshold", XLabel: "threshold (packets)", YLabel: "onset-correct rate"},
	}
	for _, k := range cfg.Thresholds {
		eng := core.NewEngine(core.Config{QueueThreshold: k})
		correct, total := 0, 0
		var periodSum float64
		var periodN int
		for _, epAt := range episodes {
			// Victims: packets arriving at fw1 shortly after the
			// episode with significant queueing delay.
			for i := range st.Journeys {
				j := &st.Journeys[i]
				hop := st.HopAt(j, "fw1")
				if hop == nil || hop.ReadAt == 0 {
					continue
				}
				if hop.ArriveAt < epAt || hop.ArriveAt.Sub(epAt) > 2*simtime.Millisecond {
					continue
				}
				delay := hop.ReadAt.Sub(hop.ArriveAt)
				if delay < 300*simtime.Microsecond {
					continue
				}
				total++
				if qp := st.QueuingPeriodThreshold("fw1", hop.ArriveAt, k); qp != nil {
					periodSum += qp.T().Millis()
					periodN++
				}
				d := eng.DiagnoseVictim(st, core.Victim{
					Journey: i, Comp: "fw1", ArriveAt: hop.ArriveAt,
					QueueDelay: delay, Kind: core.VictimLatency,
				})
				if len(d.Causes) == 0 {
					continue
				}
				top := d.Causes[0]
				if top.Comp == "fw1" && top.Kind == core.CulpritLocalProcessing &&
					top.At >= epAt-simtime.Time(2*simtime.Millisecond) {
					correct++
				}
			}
		}
		rate := 0.0
		if total > 0 {
			rate = float64(correct) / float64(total)
		}
		res.Series.Add(float64(k), rate)
		mean := 0.0
		if periodN > 0 {
			mean = periodSum / float64(periodN)
		}
		res.MeanPeriodMs = append(res.MeanPeriodMs, mean)
	}
	return res
}

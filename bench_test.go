// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Each benchmark runs the corresponding experiment end to end —
// simulate, collect, reconstruct, diagnose — and reports the headline
// metric of that artifact alongside the usual time/op:
//
//	go test -bench=. -benchmem
//
// Benchmarks use moderately scaled-down durations so the full sweep stays
// tractable on a laptop; cmd/msbench runs the full-scale versions and
// EXPERIMENTS.md records paper-vs-measured numbers.
package microscope

import (
	"runtime"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/experiments"
	"microscope/internal/netmedic"
	"microscope/internal/obs"
	"microscope/internal/patterns"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// benchAccuracy is the shared §6.2 configuration for the accuracy benches.
func benchAccuracy(seed int64) experiments.AccuracyConfig {
	return experiments.AccuracyConfig{
		Seed:       seed,
		Slots:      6,
		SlotDur:    15 * simtime.Millisecond,
		MaxVictims: 200,
	}
}

// BenchmarkFigure1 regenerates Figure 1 (burst → lasting queue impact).
func BenchmarkFigure1(b *testing.B) {
	var drain simtime.Duration
	for i := 0; i < b.N; i++ {
		res := experiments.Figure1(int64(i) + 1)
		drain = res.DrainTime
	}
	b.ReportMetric(drain.Millis(), "drain-ms")
}

// BenchmarkFigure2 regenerates Figure 2 (interrupt impact propagation).
func BenchmarkFigure2(b *testing.B) {
	var dip float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure2(int64(i) + 1)
		dip = res.MinAThroughput
	}
	b.ReportMetric(dip*1000, "flowA-min-kpps")
}

// BenchmarkFigure3 regenerates Figure 3 (different impacts, drops at VPN).
func BenchmarkFigure3(b *testing.B) {
	var drops uint64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure3(int64(i) + 1)
		drops = res.TotalDrops
	}
	b.ReportMetric(float64(drops), "drops")
}

// BenchmarkFigure11 regenerates Figure 11 (overall accuracy, both tools).
func BenchmarkFigure11(b *testing.B) {
	var micro, nm float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure11(benchAccuracy(int64(i) + 11))
		micro, nm = res.MicroRank1, res.NetRank1
	}
	b.ReportMetric(micro*100, "microscope-rank1-%")
	b.ReportMetric(nm*100, "netmedic-rank1-%")
}

// BenchmarkFigure12 regenerates Figure 12 (per-culprit-type accuracy).
func BenchmarkFigure12(b *testing.B) {
	var burst float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure12(benchAccuracy(int64(i) + 12))
		if pair, ok := res.Rank1[experiments.InjBurst]; ok {
			burst = pair[0]
		}
	}
	b.ReportMetric(burst*100, "burst-rank1-%")
}

// BenchmarkFigure13 regenerates Figure 13 (NetMedic window sweep).
func BenchmarkFigure13(b *testing.B) {
	var best simtime.Duration
	for i := 0; i < b.N; i++ {
		res := experiments.Figure13(benchAccuracy(int64(i)+13), nil)
		best = res.Best
	}
	b.ReportMetric(best.Millis(), "best-window-ms")
}

// BenchmarkFigure14 regenerates Figure 14 / §6.4 (pattern aggregation).
func BenchmarkFigure14(b *testing.B) {
	var pats, trig int
	for i := 0; i < b.N; i++ {
		res := experiments.Figure14(experiments.Figure14Config{
			Seed:     int64(i) + 14,
			Duration: 60 * simtime.Millisecond,
		})
		pats, trig = len(res.Patterns), res.TriggerPatterns
	}
	b.ReportMetric(float64(pats), "patterns")
	b.ReportMetric(float64(trig), "trigger-patterns")
}

// wildBench shares one §6.5 run across the Figure 15 / Table 2 / Table 3
// benchmarks' metric extraction.
func wildBench(b *testing.B, metric func(*experiments.WildRun) float64, unit string) {
	b.Helper()
	var v float64
	for i := 0; i < b.N; i++ {
		run := experiments.RunWild(experiments.WildConfig{
			Seed:     int64(i) + 15,
			Duration: 80 * simtime.Millisecond,
		})
		v = metric(run)
	}
	b.ReportMetric(v, unit)
}

// BenchmarkFigure15 regenerates Figure 15 (culprit→victim gap CDF).
func BenchmarkFigure15(b *testing.B) {
	wildBench(b, func(run *experiments.WildRun) float64 {
		return experiments.Figure15(run).MaxGap.Millis()
	}, "max-gap-ms")
}

// BenchmarkTable2 regenerates Table 2 (culprit×victim breakdown).
func BenchmarkTable2(b *testing.B) {
	wildBench(b, func(run *experiments.WildRun) float64 {
		return experiments.Table2(run).Propagated * 100
	}, "propagated-%")
}

// BenchmarkTable3 regenerates Table 3 (per-NAT culprit frequencies).
func BenchmarkTable3(b *testing.B) {
	wildBench(b, func(run *experiments.WildRun) float64 {
		return experiments.Table3(run).Spread
	}, "nat-spread-x")
}

// BenchmarkCollectorOverhead regenerates the §6.2 overhead measurement.
func BenchmarkCollectorOverhead(b *testing.B) {
	var maxPct float64
	for i := 0; i < b.N; i++ {
		res := experiments.Overhead(experiments.OverheadConfig{
			Seed:           int64(i) + 16,
			StressDuration: 20 * simtime.Millisecond,
		})
		maxPct = res.MaxPct
	}
	b.ReportMetric(maxPct, "max-overhead-%")
}

// BenchmarkSweepBurstSize regenerates the §6.3 burst-size sweep.
func BenchmarkSweepBurstSize(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		base := benchAccuracy(int64(i) + 17)
		base.Slots = 4
		res := experiments.SweepBurstSize(base, []int{500, 2500})
		last = res.Series.Y[len(res.Series.Y)-1]
	}
	b.ReportMetric(last*100, "rank1-at-max-%")
}

// BenchmarkSweepInterruptLen regenerates the §6.3 interrupt-length sweep.
func BenchmarkSweepInterruptLen(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		base := benchAccuracy(int64(i) + 18)
		base.Slots = 4
		res := experiments.SweepInterruptLen(base, []simtime.Duration{
			500 * simtime.Microsecond, 1500 * simtime.Microsecond,
		})
		last = res.Series.Y[len(res.Series.Y)-1]
	}
	b.ReportMetric(last*100, "rank1-at-max-%")
}

// --- Microbenchmarks of the pipeline stages themselves ---

// benchTrace builds one moderate trace reused by the stage benchmarks.
func benchTrace(seed int64) *collector.Trace {
	dep := NewEvalDeployment(EvalTopologyConfig{Seed: seed})
	wl := NewWorkload(WorkloadConfig{
		Rate:     MPPS(1.2),
		Duration: 20 * simtime.Millisecond,
		Seed:     seed + 1,
	})
	dep.InjectInterrupt("nat1", Time(8*simtime.Millisecond), 800*simtime.Microsecond)
	dep.Replay(wl)
	dep.Run(80 * simtime.Millisecond)
	return dep.Trace()
}

// BenchmarkReconstruction measures §5 journey reconstruction throughput.
func BenchmarkReconstruction(b *testing.B) {
	tr := benchTrace(21)
	b.ResetTimer()
	var journeys int
	for i := 0; i < b.N; i++ {
		st := tracestore.Build(tr)
		journeys = len(st.Journeys)
	}
	b.ReportMetric(float64(journeys)/1000, "kjourneys")
}

// BenchmarkDiagnosis measures the cost of one cold victim diagnosis: the
// memo is emptied before every op, so each runs the §4.2 walk of its
// victim's queuing period and the recursion over its culprits afresh
// instead of reading what an earlier op cached.
func BenchmarkDiagnosis(b *testing.B) {
	tr := benchTrace(22)
	st := tracestore.Build(tr)
	eng := core.NewEngine(core.Config{})
	victims := eng.FindVictims(st)
	if len(victims) == 0 {
		b.Fatal("no victims")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ResetMemo(st)
		eng.DiagnoseVictim(st, victims[i%len(victims)])
	}
}

// BenchmarkNetMedicBuild measures the baseline's model construction.
func BenchmarkNetMedicBuild(b *testing.B) {
	tr := benchTrace(23)
	st := tracestore.Build(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netmedic.New(tr, st, netmedic.Config{})
	}
}

// patternInput is the diagnosis set BenchmarkPatternAggregation and
// TestPatternWorkPinned aggregate.
func patternInput() (*tracestore.Store, []core.Diagnosis) {
	st := tracestore.Build(benchTrace(24))
	return st, core.NewEngine(core.Config{MaxVictims: 300}).Diagnose(st)
}

// BenchmarkPatternAggregation measures the §4.4 tail on a realistic
// diagnosis set: relations, their grouping by culprit and both AutoFocus
// phases, which is everything the patterns stage runs. Beside ns/relation
// it reports the AutoFocus leaves of both phases (one uncounted run with
// a registry reads them) and the bytes allocated per relation.
func BenchmarkPatternAggregation(b *testing.B) {
	st, diags := patternInput()
	reg := obs.New()
	patterns.Aggregate(patterns.RelationsFromDiagnoses(st, diags, patterns.Config{Obs: reg}), patterns.Config{Obs: reg})
	pcfg := patterns.Config{}
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var rels, pats int
	for i := 0; i < b.N; i++ {
		r := patterns.RelationsFromDiagnoses(st, diags, pcfg)
		rels, pats = r.Len(), len(patterns.Aggregate(r, pcfg))
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(rels), "relations")
	b.ReportMetric(float64(pats), "patterns")
	b.ReportMetric(float64(reg.Counter("microscope_patterns_leaves_total").Value()), "leaves")
	if rels > 0 {
		perRel := float64(b.N) * float64(rels)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRel, "ns/relation")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perRel, "B/relation")
	}
}

// TestPatternWorkPinned pins the work of the patterns stage on
// BenchmarkPatternAggregation's input, from the stage's own counters: the
// relations, the culprit groups (phase 1's searches), the victim
// aggregates (phase 2's), the AutoFocus leaves of both phases and the
// lattice cells their searches visit. All are exact functions of the
// input. The leaves are those grouping one item per relation found; the
// cells may exceed the 93,490 that re-summing the floors at every level
// gave, because floors updated by subtraction may come out lower, but by
// no more than 1 %.
func TestPatternWorkPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario test; skipped in -short mode")
	}
	st, diags := patternInput()
	reg := obs.New()
	pcfg := patterns.Config{Obs: reg}
	patterns.Aggregate(patterns.RelationsFromDiagnoses(st, diags, pcfg), pcfg)
	for _, c := range []struct {
		counter string
		want    int64
	}{
		{"microscope_patterns_relations_total", 42248},
		{`microscope_patterns_groups_total{phase="victims"}`, 307},
		{`microscope_patterns_groups_total{phase="culprits"}`, 152},
		{"microscope_patterns_leaves_total", 16835},
		{"microscope_patterns_cells_total", 93490},
		{"microscope_patterns_emitted_total", 63},
	} {
		if got := reg.Counter(c.counter).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.counter, got, c.want)
		}
	}
	const resummedCells = 93490
	if cells := reg.Counter("microscope_patterns_cells_total").Value(); cells < resummedCells || cells > resummedCells*101/100 {
		t.Errorf("%d cells, want within 1 %% above the %d of re-summed floors", cells, resummedCells)
	}
}

// BenchmarkCollectorEncode measures the compact codec (the runtime
// critical-path cost model of §6.2 builds on this).
func BenchmarkCollectorEncode(b *testing.B) {
	ipids := make([]uint16, 32)
	for i := range ipids {
		ipids[i] = uint16(i * 2011)
	}
	b.ResetTimer()
	b.ReportAllocs()
	enc := collector.NewEncoder()
	ts := simtime.Time(0)
	for i := 0; i < b.N; i++ {
		ts = ts.Add(20 * simtime.Microsecond)
		enc.Append(&collector.BatchRecord{
			Comp: "fw1", Queue: "fw1.in", At: ts,
			Dir: collector.DirRead, IPIDs: ipids,
		})
	}
	b.SetBytes(32)
}

// BenchmarkSimulator measures the simulator and its collector: one 10 ms,
// 1.2 Mpps replay through the 16-NF evaluation topology, drained, and the
// collected trace. The seeds are fixed so every iteration does the same
// work; ns/record is the wall time per collected record.
func BenchmarkSimulator(b *testing.B) {
	// Replay only reads the schedule, so one workload serves every
	// iteration.
	wl := NewWorkload(WorkloadConfig{
		Rate:     MPPS(1.2),
		Duration: 10 * simtime.Millisecond,
		Seed:     26,
	})
	b.ReportAllocs()
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i++ {
		dep := NewEvalDeployment(EvalTopologyConfig{Seed: 25})
		dep.Replay(wl)
		dep.Run(50 * simtime.Millisecond)
		records += len(dep.Trace().Records)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

// BenchmarkAblationQueueThreshold regenerates the §7 threshold ablation.
func BenchmarkAblationQueueThreshold(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		res := experiments.AblationQueueThreshold(experiments.StandingQueueConfig{Seed: int64(i) + 30})
		for _, y := range res.Series.Y {
			if y > best {
				best = y
			}
		}
	}
	b.ReportMetric(best*100, "best-onset-correct-%")
}

// BenchmarkPerfSightComparison regenerates the §8 positioning experiment.
func BenchmarkPerfSightComparison(b *testing.B) {
	ok := 0.0
	for i := 0; i < b.N; i++ {
		res := experiments.RunPerfSightComparison(int64(i) + 31)
		ok = 0
		if res.PersistentAgree {
			ok++
		}
		if res.TransientOnlyMicroscope {
			ok++
		}
	}
	b.ReportMetric(ok, "scenarios-correct")
}

// BenchmarkExplain measures the causal-tree explanation cost.
func BenchmarkExplain(b *testing.B) {
	tr := benchTrace(32)
	st := tracestore.Build(tr)
	eng := core.NewEngine(core.Config{})
	victims := eng.FindVictims(st)
	if len(victims) == 0 {
		b.Fatal("no victims")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Explain(st, victims[i%len(victims)])
	}
}

// BenchmarkClockAlignment measures §7 offset estimation on a full trace.
func BenchmarkClockAlignment(b *testing.B) {
	tr := benchTrace(33)
	skewed := tracestore.SkewTrace(tr, "fw1", 300*simtime.Microsecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracestore.AlignClocks(skewed)
	}
}

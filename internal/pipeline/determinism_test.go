package pipeline_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"microscope"
	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/nfsim"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// buildTrace runs the 16-NF evaluation topology under bursty load with
// injected interrupts and microbursts — the same problem mix mslive
// streams — and returns the collected trace.
func buildTrace(seed int64, dur simtime.Duration) *collector.Trace {
	col := collector.New(collector.Config{})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: seed})
	sim := topo.Sim

	mix := traffic.NewMix(traffic.MixConfig{Flows: 1024, Seed: seed + 1})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate: simtime.MPPS(1.2), Duration: dur, Seed: seed + 2,
	})
	rng := rand.New(rand.NewSource(seed + 3))
	nfs := topo.AllNFs()
	for at := simtime.Time(5 * simtime.Millisecond); at < simtime.Time(dur); at = at.Add(8*simtime.Millisecond + simtime.Duration(rng.Int63n(int64(6*simtime.Millisecond)))) {
		if rng.Intn(2) == 0 {
			nf := nfs[rng.Intn(len(nfs))]
			d := 400*simtime.Microsecond + simtime.Duration(rng.Int63n(int64(simtime.Millisecond)))
			sim.InjectInterrupt(nf, at, d, "det")
		} else {
			flow := mix.Flows[rng.Intn(len(mix.Flows))].Tuple
			sched.InjectBurst(traffic.BurstSpec{
				ID: int32(at / 1000), At: at, Flow: flow, Count: 600 + rng.Intn(900),
			})
		}
	}
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(dur) + simtime.Time(20*simtime.Millisecond))
	return col.Trace(collector.MetaOf(topo.Sim))
}

// fingerprint captures every observable output of a report: the rendered
// text plus a deep dump of all diagnoses, causes (full float precision,
// culprit journey lists) and patterns.
func fingerprint(r *microscope.Report) string {
	var b strings.Builder
	b.WriteString(r.Render())
	for i := range r.Diagnoses {
		d := &r.Diagnoses[i]
		fmt.Fprintf(&b, "victim %d %s %s %d %d causes=%d\n",
			d.Victim.Journey, d.Victim.Comp, d.Victim.Kind, d.Victim.ArriveAt, d.Victim.QueueDelay, len(d.Causes))
		for _, c := range d.Causes {
			fmt.Fprintf(&b, "  cause %s %s %.17g %d %v\n", c.Comp, c.Kind, c.Score, c.At, c.CulpritJourneys)
		}
	}
	for _, p := range r.Patterns {
		fmt.Fprintf(&b, "pattern %s score=%.17g\n", p.String(), p.Score)
	}
	return b.String()
}

// TestPipelineDeterminism is the pipeline's contract test: on the 16-NF
// evaluation workload, a fully sequential run (Workers=1) and parallel
// runs (Workers=2, Workers=8, and GOMAXPROCS) must produce byte-for-byte
// identical reports — rendered output, per-victim causes at full float
// precision, culprit journey lists, and patterns — across several seeds,
// at the base queuing-period definition and at a §7 queue threshold.
func TestPipelineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 16-NF topology; skipped in -short")
	}
	// Under the race detector (an order of magnitude slower) the traces
	// shrink but all seeds still run: the contract is per-seed.
	seeds, dur := []int64{1, 7, 42}, 40*simtime.Millisecond
	if raceEnabled {
		dur = 8 * simtime.Millisecond
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tr := buildTrace(seed, dur)

			seq := microscope.Diagnose(tr, microscope.WithMaxVictims(300), microscope.WithWorkers(1))
			if len(seq.Diagnoses) == 0 {
				t.Fatalf("workload produced no victims; the determinism check is vacuous")
			}
			fseq := fingerprint(seq)
			// Workers=0 resolves to GOMAXPROCS, whatever this host has.
			for _, w := range []int{2, 8, 0} {
				if fpar := fingerprint(microscope.Diagnose(tr, microscope.WithMaxVictims(300), microscope.WithWorkers(w))); fpar != fseq {
					t.Fatalf("Workers=1 and Workers=%d reports differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", w, fseq, fpar)
				}
			}

			// A §7 queue threshold on a cold store: the index stage warms
			// the store's queue-length timelines before the diagnosis fans
			// out over them.
			thr := func(workers int) string {
				res, err := pipeline.RunContext(context.Background(), tr, pipeline.Config{
					Diagnosis: core.Config{MaxVictims: 300, QueueThreshold: 3, Workers: workers},
				})
				if err != nil {
					t.Fatalf("queue_threshold 3, workers=%d: %v", workers, err)
				}
				if len(res.Diagnoses) == 0 {
					t.Fatalf("queue_threshold 3: no victims; the determinism check is vacuous")
				}
				return resultFingerprint(res)
			}
			if fseq, fpar := thr(1), thr(8); fseq != fpar {
				t.Fatalf("queue_threshold 3: Workers=1 and Workers=8 differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", fseq, fpar)
			}
		})
	}
}

// resultFingerprint deep-dumps a raw pipeline result the way fingerprint
// does a report: victims, causes at full float precision, and patterns.
func resultFingerprint(r *pipeline.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "level=%v victims=%d diagnoses=%d contained=%d relations=%d\n",
		r.Degradation, len(r.Victims), len(r.Diagnoses), r.ContainedPanics, r.Relations)
	for _, v := range r.Victims {
		fmt.Fprintf(&b, "victim %d %s %s %d %d\n", v.Journey, v.Comp, v.Kind, v.ArriveAt, v.QueueDelay)
	}
	for i := range r.Diagnoses {
		for _, c := range r.Diagnoses[i].Causes {
			fmt.Fprintf(&b, "  cause %s %s %.17g %d %v\n", c.Comp, c.Kind, c.Score, c.At, c.CulpritJourneys)
		}
	}
	for _, p := range r.Patterns {
		fmt.Fprintf(&b, "pattern %s score=%.17g\n", p.String(), p.Score)
	}
	return b.String()
}

// TestPipelineDeterminismDegraded extends the determinism contract to the
// overload path: every degradation-ladder rung, and a run with chaos-
// injected victim panics under containment, must still produce
// byte-identical output at Workers=1 and Workers=8.
func TestPipelineDeterminismDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 16-NF topology; skipped in -short")
	}
	dur := 20 * simtime.Millisecond
	if raceEnabled {
		dur = 8 * simtime.Millisecond
	}
	tr := buildTrace(9, dur)

	for _, lvl := range []resilience.Level{resilience.NoPatterns, resilience.VictimsOnly, resilience.Skipped} {
		t.Run(lvl.String(), func(t *testing.T) {
			run := func(workers int) *pipeline.Result {
				res, err := pipeline.RunContext(context.Background(), tr, pipeline.Config{
					Diagnosis: core.Config{MaxVictims: 300, Workers: workers},
					Degrade:   lvl,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}
			seq, par := run(1), run(8)
			if seq.Degradation != lvl {
				t.Errorf("Degradation = %v, want %v", seq.Degradation, lvl)
			}
			if lvl >= resilience.VictimsOnly && len(seq.Diagnoses) != 0 {
				t.Errorf("rung %v still diagnosed %d victims", lvl, len(seq.Diagnoses))
			}
			if lvl == resilience.NoPatterns && (len(seq.Diagnoses) == 0 || seq.Patterns != nil) {
				t.Errorf("no-patterns rung: diagnoses=%d patterns=%v", len(seq.Diagnoses), seq.Patterns)
			}
			fseq, fpar := resultFingerprint(seq), resultFingerprint(par)
			if fseq != fpar {
				t.Fatalf("degraded run differs across worker counts:\n--- sequential ---\n%s\n--- parallel ---\n%s", fseq, fpar)
			}
		})
	}

	t.Run("victim-panics", func(t *testing.T) {
		hook := func(scope string) {
			if scope == "victim:2" || scope == "victim:5" {
				panic("chaos: injected victim panic")
			}
		}
		run := func(workers int) *pipeline.Result {
			res, err := pipeline.RunContext(context.Background(), tr, pipeline.Config{
				Diagnosis: core.Config{MaxVictims: 300, Workers: workers, ContainPanics: true, ChaosHook: hook},
				// Patterns dominate the wall clock and play no part in
				// victim-level containment; the rung subtests above cover
				// pattern-stage determinism.
				SkipPatterns: true,
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return res
		}
		seq, par := run(1), run(8)
		if seq.ContainedPanics != 2 {
			t.Fatalf("contained %d panics, want 2", seq.ContainedPanics)
		}
		fseq, fpar := resultFingerprint(seq), resultFingerprint(par)
		if fseq != fpar {
			t.Fatalf("contained-panic run differs across worker counts:\n--- sequential ---\n%s\n--- parallel ---\n%s", fseq, fpar)
		}
	})

	t.Run("facade", func(t *testing.T) {
		// The options surface maps the rung through to the report.
		rep := microscope.Diagnose(tr, microscope.WithMaxVictims(300),
			microscope.WithDegradation(microscope.DegradeNoPatterns),
			microscope.WithPanicContainment())
		if rep.Degradation != microscope.DegradeNoPatterns {
			t.Errorf("report degradation = %v, want no-patterns", rep.Degradation)
		}
		if len(rep.Patterns) != 0 {
			t.Errorf("no-patterns report still has %d patterns", len(rep.Patterns))
		}
	})
}

// TestPipelineStages checks the staged structure: every stage is present,
// timed, and in order, and SkipPatterns stops after diagnosis.
func TestPipelineStages(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 16-NF topology; skipped in -short")
	}
	dur := 20 * simtime.Millisecond
	if raceEnabled {
		dur = 8 * simtime.Millisecond
	}
	tr := buildTrace(3, dur)
	rep := microscope.Diagnose(tr, microscope.WithMaxVictims(100))
	want := []string{"reconstruct", "index", "victims", "diagnose", "patterns"}
	stages := rep.Spans[1:]
	if len(stages) != len(want) {
		t.Fatalf("got %d stage spans, want %d: %+v", len(stages), len(want), stages)
	}
	for i, name := range want {
		s := stages[i]
		if s.Name != name || s.Kind != "stage" || s.Parent != 0 {
			t.Errorf("span %d = %q (kind %q, parent %d), want stage %q under the root", i+1, s.Name, s.Kind, s.Parent, name)
		}
		if s.Dur < 0 {
			t.Errorf("stage %q has negative duration %v", name, s.Dur)
		}
	}
}

// TestPipelineDeterminismWithObserver pins the observability side of the
// determinism contract: attaching a live metrics registry must not change
// the report — sequential, parallel, and unobserved runs all fingerprint
// identically — while the registry itself fills with the run's metrics and
// spans.
func TestPipelineDeterminismWithObserver(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 16-NF topology; skipped in -short")
	}
	dur := 20 * simtime.Millisecond
	if raceEnabled {
		dur = 8 * simtime.Millisecond
	}
	tr := buildTrace(5, dur)

	plain := microscope.Diagnose(tr, microscope.WithMaxVictims(200))
	regSeq, regPar := microscope.NewRegistry(), microscope.NewRegistry()
	seq := microscope.Diagnose(tr, microscope.WithMaxVictims(200),
		microscope.WithWorkers(1), microscope.WithObserver(regSeq))
	par := microscope.Diagnose(tr, microscope.WithMaxVictims(200),
		microscope.WithWorkers(8), microscope.WithObserver(regPar))

	fp, fs, fpar := fingerprint(plain), fingerprint(seq), fingerprint(par)
	if fs != fp {
		t.Fatal("attaching a registry changed the sequential report")
	}
	if fpar != fp {
		t.Fatal("attaching a registry changed the parallel report")
	}

	// The registry must reflect the run it observed.
	snap := regSeq.TakeSnapshot()
	if got := snap.Counters["microscope_pipeline_runs_total"]; got != 1 {
		t.Errorf("pipeline_runs_total = %d, want 1", got)
	}
	if got := snap.Counters["microscope_diag_victims_total"]; got != int64(len(seq.Diagnoses)) {
		t.Errorf("diag_victims_total = %d, want %d", got, len(seq.Diagnoses))
	}
	if snap.Gauges["microscope_store_journeys"] == 0 {
		t.Error("store_journeys gauge not published")
	}
	if len(snap.Spans) == 0 || snap.SpansTotal == 0 {
		t.Error("no spans recorded into the registry tracer")
	}
	// The report's own span tree is the root plus one span per stage.
	for _, s := range seq.Spans[1:] {
		if s.Kind != "stage" || s.Parent != 0 {
			t.Errorf("non-root span %+v, want a stage under the root", s)
		}
	}
	if seq.Spans[0].Name != "pipeline" || seq.Spans[0].Parent != -1 {
		t.Errorf("root span = %+v, want pipeline/-1", seq.Spans[0])
	}
}

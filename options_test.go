package microscope

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"microscope/internal/simtime"
)

// optionsTrace builds a small chain run with an injected burst so the
// diagnosis has victims to work on.
func optionsTrace(t *testing.T) *Trace {
	t.Helper()
	dep := NewChainDeployment(17,
		ChainNF{Name: "fw1", Kind: "fw", Rate: MPPS(0.5)},
		ChainNF{Name: "vpn1", Kind: "vpn", Rate: MPPS(0.6)},
	)
	wl := NewWorkload(WorkloadConfig{Rate: MPPS(0.3), Duration: 10 * simtime.Millisecond, Seed: 17})
	wl.InjectBurst(Burst{At: Time(3 * simtime.Millisecond), Flow: wl.PickFlow(0), Count: 900})
	dep.Replay(wl)
	dep.Run(60 * simtime.Millisecond)
	return dep.Trace()
}

// reportText flattens every observable field of a report for byte-level
// comparison.
func reportText(r *Report) string {
	var b strings.Builder
	b.WriteString(r.Render())
	for i := range r.Diagnoses {
		d := &r.Diagnoses[i]
		fmt.Fprintf(&b, "victim %d %s %s\n", d.Victim.Journey, d.Victim.Comp, d.Victim.Kind)
		for _, c := range d.Causes {
			fmt.Fprintf(&b, "  %s %s %.17g %d %v\n", c.Comp, c.Kind, c.Score, c.At, c.CulpritJourneys)
		}
	}
	for _, p := range r.Patterns {
		fmt.Fprintf(&b, "%s %.17g\n", p.String(), p.Score)
	}
	return b.String()
}

// TestOptionsEquivalence is the facade contract: the functional options
// and the spec document they edit are one configuration, so both forms
// produce byte-identical reports and victim selections, and the
// zero-argument call equals the empty spec.
func TestOptionsEquivalence(t *testing.T) {
	tr := optionsTrace(t)

	s := &PipelineSpec{}
	s.Diagnosis.VictimPercentile, s.Diagnosis.MaxVictims, s.Diagnosis.Workers = 95, 150, 4
	specRep := Diagnose(tr, WithSpec(s))
	optRep := Diagnose(tr,
		WithVictimPercentile(95),
		WithMaxVictims(150),
		WithWorkers(4),
	)
	if len(specRep.Diagnoses) == 0 {
		t.Fatal("no victims diagnosed; equivalence check is vacuous")
	}
	if a, b := reportText(specRep), reportText(optRep); a != b {
		t.Fatalf("spec-form and option-form reports differ:\n--- spec ---\n%s\n--- options ---\n%s", a, b)
	}

	bare := Diagnose(tr)
	zero := Diagnose(tr, WithSpec(&PipelineSpec{}))
	if a, b := reportText(bare), reportText(zero); a != b {
		t.Fatal("Diagnose(tr) and Diagnose(tr, WithSpec(&PipelineSpec{})) reports differ")
	}

	// Victim selection routes through the same resolver.
	st := Reconstruct(tr)
	v1 := Victims(st, WithSpec(s))
	v2 := Victims(st, WithVictimPercentile(95), WithMaxVictims(150), WithWorkers(4))
	if len(v1) == 0 || len(v1) != len(v2) {
		t.Fatalf("Victims spec-form selected %d, option-form %d", len(v1), len(v2))
	}
}

// TestPanicContainmentReachesEngine: WithPanicContainment arms the engine
// configuration DiagnoseOne, Explain and Victims run with, not only the
// pipeline's.
func TestPanicContainmentReachesEngine(t *testing.T) {
	c := resolve([]Option{WithPanicContainment()})
	if !c.coreConfig().ContainPanics {
		t.Error("WithPanicContainment did not reach the engine config")
	}
	if !c.pipelineConfig().Diagnosis.ContainPanics {
		t.Error("WithPanicContainment did not reach the pipeline config")
	}
	if c := resolve(nil); c.coreConfig().ContainPanics || c.pipelineConfig().Diagnosis.ContainPanics {
		t.Error("containment armed without WithPanicContainment")
	}
}

// TestDiagnoseContextCancelled checks cancellation through the facade: an
// already-cancelled context yields a partial report and a wrapped
// context.Canceled.
func TestDiagnoseContextCancelled(t *testing.T) {
	tr := optionsTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := DiagnoseContext(ctx, tr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled DiagnoseContext returned nil report")
	}
	if len(rep.Diagnoses) != 0 || rep.Patterns != nil {
		t.Error("pre-cancelled run should not have diagnosed anything")
	}

	// And the happy path through the same entry point.
	rep, err = DiagnoseContext(context.Background(), tr)
	if err != nil {
		t.Fatalf("uncancelled DiagnoseContext errored: %v", err)
	}
	if len(rep.Diagnoses) == 0 {
		t.Error("uncancelled DiagnoseContext produced no diagnoses")
	}
}

// TestWithObserverPopulatesRegistry checks the public observability wiring:
// a registry attached via WithObserver fills with pipeline metrics, the
// report carries the span tree, and both exporters produce output.
func TestWithObserverPopulatesRegistry(t *testing.T) {
	tr := optionsTrace(t)
	reg := NewRegistry()
	rep := Diagnose(tr, WithObserver(reg), WithMaxVictims(100))
	if len(rep.Diagnoses) == 0 {
		t.Fatal("no diagnoses")
	}

	snap := reg.TakeSnapshot()
	if snap.Counters["microscope_pipeline_runs_total"] != 1 {
		t.Errorf("pipeline_runs_total = %d, want 1", snap.Counters["microscope_pipeline_runs_total"])
	}
	if snap.Counters["microscope_diag_victims_total"] != int64(len(rep.Diagnoses)) {
		t.Errorf("diag_victims_total = %d, want %d",
			snap.Counters["microscope_diag_victims_total"], len(rep.Diagnoses))
	}
	if snap.Gauges["microscope_store_journeys"] == 0 {
		t.Error("store gauges not published")
	}
	stages := 0
	for _, s := range rep.Spans {
		if s.Kind == "stage" {
			stages++
		}
	}
	if stages == 0 || len(rep.Spans) != stages+1 {
		t.Errorf("report spans = %d, want %d stages + the root", len(rep.Spans), stages)
	}

	var prom, js bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(prom.String(), "microscope_pipeline_runs_total 1") {
		t.Error("Prometheus exposition missing pipeline_runs_total")
	}
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(js.String(), "microscope_diag_victims_total") {
		t.Error("JSON snapshot missing diag counter")
	}
}

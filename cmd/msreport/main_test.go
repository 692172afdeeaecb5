package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microscope"
	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/htmlreport"
	"microscope/internal/pipeline"
	"microscope/internal/spec"
	"microscope/internal/tracestore"
)

// TestReportMatchesPipeline: msreport over a small eval-topology trace
// with an injected interrupt writes a page whose summary names the victim
// and pattern counts, and those counts are what pipeline.RunStore reports
// for the spec msreport's flags describe. The page msreport makes from the
// trace file's frames is, byte for byte, the page of the store Build makes
// from the decoded records.
func TestReportMatchesPipeline(t *testing.T) {
	dep := microscope.NewEvalDeployment(microscope.EvalTopologyConfig{Seed: 3})
	wl := microscope.NewWorkload(microscope.WorkloadConfig{
		Rate: microscope.MPPS(0.8), Duration: 4 * microscope.Millisecond, Seed: 3,
	})
	dep.InjectInterrupt("fw2", microscope.Time(2*microscope.Millisecond), 600*microscope.Microsecond)
	dep.Replay(wl)
	dep.Run(20 * microscope.Millisecond)
	dir := t.TempDir()
	traceDir := filepath.Join(dir, "trace")
	if err := collector.WriteTrace(traceDir, dep.Trace()); err != nil {
		t.Fatal(err)
	}

	page := filepath.Join(dir, "report.html")
	var stdout bytes.Buffer
	args := []string{"-trace", traceDir, "-o", page, "-percentile", "95", "-max-victims", "100", "-threshold", "0.02"}
	if err := run(args, &stdout); err != nil {
		t.Fatal(err)
	}

	tr, err := collector.ReadTrace(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	st := tracestore.Build(tr)
	sp := &spec.PipelineSpec{Diagnosis: spec.DiagnosisSpec{VictimPercentile: 95, MaxVictims: 100, PatternThreshold: 0.02}}
	res := pipeline.RunStore(st, sp.Resolved().PipelineConfig(nil))
	if len(res.Diagnoses) == 0 || len(res.Patterns) == 0 {
		t.Fatalf("reference run found %d victims, %d patterns; the comparison would be vacuous",
			len(res.Diagnoses), len(res.Patterns))
	}

	want := fmt.Sprintf("report: %d victims, %d patterns -> %s", len(res.Diagnoses), len(res.Patterns), page)
	if !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("stdout = %q, want prefix %q", stdout.String(), want)
	}
	html, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	summary := fmt.Sprintf("%d victims diagnosed; %d causal patterns.", len(res.Diagnoses), len(res.Patterns))
	if !strings.Contains(string(html), summary) {
		t.Errorf("page does not say %q", summary)
	}
	if !strings.Contains(string(html), "<td>fw2</td>") {
		t.Error("page does not name the interrupted NF among its culprits")
	}

	in := htmlreport.Input{Store: st, Diagnoses: res.Diagnoses, Patterns: res.Patterns}
	worst := 0
	for i := range res.Diagnoses {
		if res.Diagnoses[i].Victim.QueueDelay > res.Diagnoses[worst].Victim.QueueDelay {
			worst = i
		}
	}
	in.Explanation = core.NewEngine(sp.Resolved().PipelineConfig(nil).Diagnosis).Explain(st, res.Diagnoses[worst].Victim)
	if want := htmlreport.Render(in); string(html) != want {
		t.Errorf("the page (%d bytes) is not the one rendered from Build(ReadTrace) (%d bytes)", len(html), len(want))
	}
}

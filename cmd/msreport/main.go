// Command msreport turns a collected trace into a single self-contained
// HTML diagnosis report: ranked culprits, causal patterns, the worst
// victim's causal tree, and reconstructed queue-occupancy charts.
//
//	msreport -trace /tmp/trace -o report.html
//
// The engine flags are fields of a pipeline spec (the document msdiag
// and msserve tenants are configured with), lowered by
// PipelineSpec.PipelineConfig.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/htmlreport"
	"microscope/internal/pipeline"
	"microscope/internal/spec"
	"microscope/internal/tracestore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msreport: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, diagnoses the trace they name, writes the HTML page
// and prints a one-line summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("msreport", flag.ContinueOnError)
	var (
		traceDir   = fs.String("trace", "trace", "trace directory")
		out        = fs.String("o", "report.html", "output HTML file")
		threshold  = fs.Float64("threshold", 0.01, "pattern aggregation threshold")
		percentile = fs.Float64("percentile", 99, "victim latency percentile")
		maxVictims = fs.Int("max-victims", 500, "cap on diagnosed victims")
		title      = fs.String("title", "", "report title")
		align      = fs.Bool("align", false, "correct per-component clock offsets first")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp := &spec.PipelineSpec{Diagnosis: spec.DiagnosisSpec{
		VictimPercentile: *percentile,
		MaxVictims:       *maxVictims,
		PatternThreshold: *threshold,
	}}
	if err := sp.Validate(); err != nil {
		return err
	}
	pcfg := sp.Resolved().PipelineConfig(nil)

	tr, err := collector.ReadTrace(*traceDir)
	if err != nil {
		return err
	}
	if *align {
		_, tr = tracestore.AlignClocks(tr)
	}
	st := tracestore.Build(tr)
	res := pipeline.RunStore(st, pcfg)
	diags := res.Diagnoses

	in := htmlreport.Input{
		Store:     st,
		Diagnoses: diags,
		Patterns:  res.Patterns,
		Title:     *title,
	}
	// Explain the worst victim (largest queue delay).
	worst := -1
	for i := range diags {
		if worst < 0 || diags[i].Victim.QueueDelay > diags[worst].Victim.QueueDelay {
			worst = i
		}
	}
	if worst >= 0 {
		in.Explanation = core.NewEngine(pcfg.Diagnosis).Explain(st, diags[worst].Victim)
	}

	page := htmlreport.Render(in)
	if err := os.WriteFile(*out, []byte(page), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "report: %d victims, %d patterns -> %s (%d bytes)\n",
		len(diags), len(res.Patterns), *out, len(page))
	return nil
}

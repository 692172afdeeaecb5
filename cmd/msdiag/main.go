// Command msdiag runs Microscope's offline diagnosis on a trace directory
// produced by mschain (or any collector of the same format): journey
// reconstruction, queuing-period causal analysis, and pattern aggregation.
//
//	msdiag -trace /tmp/trace -threshold 0.01 -percentile 99
//
// The engine configuration is a declarative pipeline spec (the same
// document msserve tenants are created from), lowered by
// PipelineSpec.PipelineConfig. The engine flags are fields of that spec:
// without -spec they fill an empty one, with -spec file.json only the
// flags given explicitly on the command line override the file.
// -dump-spec prints the fully resolved spec for the effective
// configuration and exits — the round trip from flags to a document a
// tenant can be created with.
//
// With -netmedic it additionally prints the baseline's per-victim ranking
// for comparison.
//
// The store is built straight from the trace file's frames
// (tracestore.Load), never holding the records as an array; only the flags
// that need the records themselves (-faults, -align, -netmedic) decode them
// first (collector.ReadTrace, then tracestore.Build). Both paths print the
// same diagnosis.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/faults"
	"microscope/internal/netmedic"
	"microscope/internal/obs"
	"microscope/internal/par"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
	"microscope/internal/simtime"
	"microscope/internal/spec"
	"microscope/internal/tracestore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msdiag: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args, diagnoses the trace they name and prints the report to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("msdiag", flag.ContinueOnError)
	var (
		traceDir   = fs.String("trace", "trace", "trace directory")
		threshold  = fs.Float64("threshold", 0.01, "pattern aggregation threshold")
		percentile = fs.Float64("percentile", 99, "victim latency percentile")
		maxVictims = fs.Int("max-victims", 1000, "cap on diagnosed victims (0 = all)")
		showPats   = fs.Int("patterns", 15, "patterns to print")
		showDiags  = fs.Int("victims", 5, "sample victim diagnoses to print")
		explain    = fs.Int("explain", -1, "print the full causal tree for this victim index")
		alignClk   = fs.Bool("align", false, "estimate and correct per-component clock offsets before diagnosis (§7)")
		faultSpec  = fs.String("faults", "", "corrupt the loaded trace before diagnosis: drop=0.05,seed=7,... (measures degradation under telemetry loss)")
		forceLoss  = fs.Bool("force-loss", false, "keep loss diagnosis even when trace health is degraded")
		withNM     = fs.Bool("netmedic", false, "also run the NetMedic baseline")
		nmWindow   = fs.Duration("netmedic-window", 10*time.Millisecond, "NetMedic window")
		workers    = fs.Int("workers", 0, "parallel workers of diagnosis and of pattern aggregation (0 = GOMAXPROCS, 1 = sequential; output is identical)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		metricsOut = fs.String("metrics-out", "", "write a JSON metrics snapshot (counters, histograms, spans) to this file on exit")
		specPath   = fs.String("spec", "", "load engine knobs from this pipeline spec (explicit flags override it)")
		dumpSpec   = fs.Bool("dump-spec", false, "print the resolved pipeline spec for the effective configuration and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Every engine flag fills an empty spec; over a -spec file only the
	// flags the user typed (fs.Visit) override it.
	sp, visit := &spec.PipelineSpec{}, fs.VisitAll
	if *specPath != "" {
		var err error
		if sp, err = spec.Load(*specPath); err != nil {
			return err
		}
		visit = fs.Visit
	}
	d := &sp.Diagnosis
	visit(func(f *flag.Flag) {
		switch f.Name {
		case "percentile":
			d.VictimPercentile = *percentile
		case "max-victims":
			d.MaxVictims = *maxVictims
		case "threshold":
			d.PatternThreshold = *threshold
		case "workers":
			d.Workers = *workers
		case "force-loss":
			d.LossVictimsWhenDegraded = *forceLoss
		}
	})
	if err := sp.Validate(); err != nil {
		return err
	}
	sp = sp.Resolved()
	if *dumpSpec {
		doc, err := sp.Encode()
		if err != nil {
			return err
		}
		_, err = stdout.Write(doc)
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}()
	}

	start := time.Now() //mslint:allow nondet wall-clock progress banner, not diagnosis output
	var (
		tr *collector.Trace // the records, only when a flag needs them
		st *tracestore.Store
	)
	if *faultSpec == "" && !*alignClk && !*withNM {
		var err error
		if st, err = tracestore.Load(*traceDir); err != nil {
			return err
		}
		h := st.Health()
		printLoaded(stdout, h.Records, *traceDir, h.Integrity)
	} else {
		var err error
		if tr, err = collector.ReadTrace(*traceDir); err != nil {
			return err
		}
		printLoaded(stdout, len(tr.Records), *traceDir, tr.Integrity)
		if *faultSpec != "" {
			fcfg, err := faults.ParseSpec(*faultSpec)
			if err != nil {
				return err
			}
			var fst faults.Stats
			tr, fst = faults.Inject(tr, fcfg)
			fmt.Fprintln(stdout, fst)
		}
		if *alignClk {
			offsets, fixed := tracestore.AlignClocks(tr)
			tr = fixed
			fmt.Fprint(stdout, "clock offsets:")
			for comp, off := range offsets {
				if off > simtime.Duration(simtime.Microsecond) || off < -simtime.Duration(simtime.Microsecond) {
					fmt.Fprintf(stdout, " %s=%v", comp, off)
				}
			}
			fmt.Fprintln(stdout)
		}
		start = time.Now() //mslint:allow nondet wall-clock progress banner, not diagnosis output
		st = tracestore.Build(tr)
	}
	//mslint:allow nondet wall-clock progress banner, not diagnosis output
	fmt.Fprintf(stdout, "%s (%v)\n", st.String(), time.Since(start).Round(time.Millisecond))
	health := st.Health()
	fmt.Fprintln(stdout, health)
	if health.Degraded() && !sp.Diagnosis.LossVictimsWhenDegraded {
		fmt.Fprintln(stdout, "trace degraded: loss diagnosis suppressed (use -force-loss to keep it)")
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.New()
	}
	pcfg := sp.PipelineConfig(reg)
	res := pipeline.RunStore(st, pcfg)
	if reg != nil {
		defer func() {
			f, err := os.Create(*metricsOut)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			if err := reg.WriteJSON(f); err != nil {
				log.Printf("metrics-out: %v", err)
				return
			}
			fmt.Fprintf(stdout, "(metrics snapshot written to %s)\n", *metricsOut)
		}()
	}
	diags := res.Diagnoses
	var stages []string
	for _, s := range res.Spans {
		if s.Kind == "stage" {
			stages = append(stages, fmt.Sprintf("%s %v", s.Name, s.Dur.Round(time.Millisecond)))
		}
	}
	fmt.Fprintf(stdout, "pipeline (%d workers): %s\n", par.Workers(pcfg.Diagnosis.Workers, len(res.Victims)), strings.Join(stages, " | "))
	fmt.Fprintf(stdout, "diagnosed %d victims\n", len(diags))

	for i := 0; i < len(diags) && i < *showDiags; i++ {
		d := &diags[i]
		flow := "?"
		if d.Victim.HasTuple {
			flow = d.Victim.Tuple.String()
		}
		fmt.Fprintf(stdout, "\nvictim #%d: %s at %s flow %s (t=%v, queue delay %v)\n",
			i, d.Victim.Kind, d.Victim.Comp, flow, d.Victim.ArriveAt, d.Victim.QueueDelay)
		for r, c := range d.Causes {
			if r >= 4 {
				break
			}
			fmt.Fprintf(stdout, "  rank %d: %s/%s score=%.1f onset=%v\n", r+1, c.Comp, c.Kind, c.Score, c.At)
		}
	}

	if *explain >= 0 && *explain < len(diags) {
		fmt.Fprintf(stdout, "\ncausal tree for victim #%d:\n", *explain)
		// The engine shares the store's cached index, so this costs one
		// victim's recursion, not a trace rescan.
		fmt.Fprint(stdout, core.NewEngine(pcfg.Diagnosis).Explain(st, diags[*explain].Victim).Render())
	}

	pats := res.Patterns
	fmt.Fprintf(stdout, "\naggregated %d causal relations into %d patterns\n",
		res.Relations, len(pats))
	limit := len(pats)
	if limit > *showPats {
		limit = *showPats
	}
	fmt.Fprint(stdout, patterns.Render(pats[:limit]))

	if *withNM {
		victims := make([]core.Victim, len(diags))
		for i := range diags {
			victims[i] = diags[i].Victim
		}
		nm := netmedic.New(tr, st, netmedic.Config{Window: simtime.Duration(nmWindow.Nanoseconds())})
		res := nm.Diagnose(victims)
		fmt.Fprintf(stdout, "\nNetMedic baseline (window %v), first victims:\n", *nmWindow)
		for i := 0; i < len(res) && i < *showDiags; i++ {
			fmt.Fprintf(stdout, "  victim #%d:", i)
			for r, rc := range res[i].Ranked {
				if r >= 4 {
					break
				}
				fmt.Fprintf(stdout, " %d:%s(%.2g)", r+1, rc.Comp, rc.Score)
			}
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

// printLoaded prints the trace's record count and what decoding it lost.
func printLoaded(stdout io.Writer, records int, dir string, g collector.Integrity) {
	fmt.Fprintf(stdout, "loaded %d records from %s\n", records, dir)
	if g.Damaged() {
		fmt.Fprintf(stdout, "trace damage: %d skipped in decode, %d resyncs, %d dropped, %d truncated\n",
			g.DecodeSkipped, g.DecodeResyncs, g.DroppedRecords, g.TruncatedRecords)
	}
}

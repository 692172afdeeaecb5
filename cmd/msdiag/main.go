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
package main

import (
	"flag"
	"fmt"
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

	var (
		traceDir   = flag.String("trace", "trace", "trace directory")
		threshold  = flag.Float64("threshold", 0.01, "pattern aggregation threshold")
		percentile = flag.Float64("percentile", 99, "victim latency percentile")
		maxVictims = flag.Int("max-victims", 1000, "cap on diagnosed victims (0 = all)")
		showPats   = flag.Int("patterns", 15, "patterns to print")
		showDiags  = flag.Int("victims", 5, "sample victim diagnoses to print")
		explain    = flag.Int("explain", -1, "print the full causal tree for this victim index")
		alignClk   = flag.Bool("align", false, "estimate and correct per-component clock offsets before diagnosis (§7)")
		faultSpec  = flag.String("faults", "", "corrupt the loaded trace before diagnosis: drop=0.05,seed=7,... (measures degradation under telemetry loss)")
		forceLoss  = flag.Bool("force-loss", false, "keep loss diagnosis even when trace health is degraded")
		withNM     = flag.Bool("netmedic", false, "also run the NetMedic baseline")
		nmWindow   = flag.Duration("netmedic-window", 10*time.Millisecond, "NetMedic window")
		workers    = flag.Int("workers", 0, "parallel diagnosis workers (0 = GOMAXPROCS, 1 = sequential; output is identical)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsOut = flag.String("metrics-out", "", "write a JSON metrics snapshot (counters, histograms, spans) to this file on exit")
		specPath   = flag.String("spec", "", "load engine knobs from this pipeline spec (explicit flags override it)")
		dumpSpec   = flag.Bool("dump-spec", false, "print the resolved pipeline spec for the effective configuration and exit")
	)
	flag.Parse()

	// Every engine flag fills an empty spec; over a -spec file only the
	// flags the user typed (flag.Visit) override it.
	sp, visit := &spec.PipelineSpec{}, flag.VisitAll
	if *specPath != "" {
		var err error
		if sp, err = spec.Load(*specPath); err != nil {
			log.Fatal(err)
		}
		visit = flag.Visit
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
		log.Fatal(err)
	}
	sp = sp.Resolved()
	if *dumpSpec {
		doc, err := sp.Encode()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(doc)
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
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

	tr, err := collector.ReadTrace(*traceDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d records from %s\n", len(tr.Records), *traceDir)
	if tr.Integrity.Damaged() {
		fmt.Printf("trace damage: %d skipped in decode, %d resyncs, %d dropped, %d truncated\n",
			tr.Integrity.DecodeSkipped, tr.Integrity.DecodeResyncs,
			tr.Integrity.DroppedRecords, tr.Integrity.TruncatedRecords)
	}

	if *faultSpec != "" {
		fcfg, ferr := faults.ParseSpec(*faultSpec)
		if ferr != nil {
			log.Fatal(ferr)
		}
		var fst faults.Stats
		tr, fst = faults.Inject(tr, fcfg)
		fmt.Println(fst)
	}

	if *alignClk {
		offsets, fixed := tracestore.AlignClocks(tr)
		tr = fixed
		fmt.Print("clock offsets:")
		for comp, off := range offsets {
			if off > simtime.Duration(simtime.Microsecond) || off < -simtime.Duration(simtime.Microsecond) {
				fmt.Printf(" %s=%v", comp, off)
			}
		}
		fmt.Println()
	}

	start := time.Now() //mslint:allow nondet wall-clock progress banner, not diagnosis output
	st := tracestore.Build(tr)
	//mslint:allow nondet wall-clock progress banner, not diagnosis output
	fmt.Printf("%s (%v)\n", st.String(), time.Since(start).Round(time.Millisecond))
	health := st.Health()
	fmt.Println(health)
	if health.Degraded() && !sp.Diagnosis.LossVictimsWhenDegraded {
		fmt.Println("trace degraded: loss diagnosis suppressed (use -force-loss to keep it)")
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
			fmt.Printf("(metrics snapshot written to %s)\n", *metricsOut)
		}()
	}
	diags := res.Diagnoses
	var stages []string
	for _, s := range res.Spans {
		if s.Kind == "stage" {
			stages = append(stages, fmt.Sprintf("%s %v", s.Name, s.Dur.Round(time.Millisecond)))
		}
	}
	fmt.Printf("pipeline (%d workers): %s\n", par.Workers(pcfg.Diagnosis.Workers, len(res.Victims)), strings.Join(stages, " | "))
	fmt.Printf("diagnosed %d victims\n", len(diags))

	for i := 0; i < len(diags) && i < *showDiags; i++ {
		d := &diags[i]
		flow := "?"
		if d.Victim.HasTuple {
			flow = d.Victim.Tuple.String()
		}
		fmt.Printf("\nvictim #%d: %s at %s flow %s (t=%v, queue delay %v)\n",
			i, d.Victim.Kind, d.Victim.Comp, flow, d.Victim.ArriveAt, d.Victim.QueueDelay)
		for r, c := range d.Causes {
			if r >= 4 {
				break
			}
			fmt.Printf("  rank %d: %s/%s score=%.1f onset=%v\n", r+1, c.Comp, c.Kind, c.Score, c.At)
		}
	}

	if *explain >= 0 && *explain < len(diags) {
		fmt.Printf("\ncausal tree for victim #%d:\n", *explain)
		// The engine shares the store's cached index, so this costs one
		// victim's recursion, not a trace rescan.
		fmt.Print(core.NewEngine(pcfg.Diagnosis).Explain(st, diags[*explain].Victim).Render())
	}

	pats := res.Patterns
	fmt.Printf("\naggregated %d causal relations into %d patterns\n",
		res.Relations, len(pats))
	limit := len(pats)
	if limit > *showPats {
		limit = *showPats
	}
	fmt.Print(patterns.Render(pats[:limit]))

	if *withNM {
		victims := make([]core.Victim, len(diags))
		for i := range diags {
			victims[i] = diags[i].Victim
		}
		nm := netmedic.New(st, netmedic.Config{Window: simtime.Duration(nmWindow.Nanoseconds())})
		res := nm.Diagnose(victims)
		fmt.Printf("\nNetMedic baseline (window %v), first victims:\n", *nmWindow)
		for i := 0; i < len(res) && i < *showDiags; i++ {
			fmt.Printf("  victim #%d:", i)
			for r, rc := range res[i].Ranked {
				if r >= 4 {
					break
				}
				fmt.Printf(" %d:%s(%.2g)", r+1, rc.Comp, rc.Score)
			}
			fmt.Println()
		}
	}
}

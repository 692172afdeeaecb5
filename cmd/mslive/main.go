// Command mslive demonstrates continuous operation: it runs the 16-NF
// evaluation topology with naturally occurring problems (interrupts,
// microbursts) and streams the collector's records through the online
// monitor, printing alerts as each analysis window closes — Microscope as
// a monitoring daemon rather than a post-mortem tool.
//
// With -listen it also serves the daemon's runtime introspection surface:
// Prometheus metrics at /metrics (plus a JSON mirror at /metrics.json),
// liveness at /healthz (503 while warming up, when the latest window's
// trace health is degraded, or when the overload ladder skipped the
// latest window; the body reports the active degradation level and shed/
// skip/quarantine counts), and the standard Go profiler under
// /debug/pprof/.
//
// The overload defenses are armed with -ring-cap (bounded ingest plus the
// degradation ladder and panic containment), and tuned with -shed-policy,
// -window-deadline, and -max-mem. SIGINT/SIGTERM stop the stream cleanly:
// pending windows are flushed, final stats printed, and the HTTP server
// shut down gracefully.
//
// The monitor's configuration is a declarative pipeline spec (the same
// document msserve tenants use), lowered by the same conversion msserve
// runs (PipelineSpec.MonitorConfig). The configuration flags are fields of
// that spec: without -spec they fill an empty one, with -spec file.json
// only the flags given explicitly on the command line override the file.
//
//	mslive -dur 500ms -window 100ms
//	mslive -dur 2s -listen :9090 -hold 30s -ring-cap 200000 -window-deadline 2s
//	mslive -dur 2s -spec tenant.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/obs"
	"microscope/internal/online"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/spec"
	"microscope/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mslive: ")

	var (
		dur      = flag.Duration("dur", 500*time.Millisecond, "simulated duration")
		window   = flag.Duration("window", 100*time.Millisecond, "monitor analysis window")
		rateMpps = flag.Float64("rate", 1.2, "offered load in Mpps")
		seed     = flag.Int64("seed", 1, "random seed")
		minScore = flag.Float64("min-score", 100, "alert threshold (packets of blame)")
		workers  = flag.Int("workers", 0, "parallel diagnosis workers per window (0 = GOMAXPROCS, 1 = sequential; alerts are identical)")
		listen   = flag.String("listen", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :9090; empty = off)")
		hold     = flag.Duration("hold", 0, "keep serving the HTTP endpoints this long after the stream ends")
		ringCap  = flag.Int("ring-cap", 0, "bound the ingest buffer to this many records and arm the degradation ladder + panic containment (0 = unbounded, no defenses)")
		shedPol  = flag.String("shed-policy", "drop-oldest", "what a full ingest ring sheds: drop-oldest (windows) or reject-new (arrivals)")
		deadline = flag.Duration("window-deadline", 0, "wall-clock budget per analysis window; an overrunning window is skipped and counted (0 = none)")
		maxMem   = flag.Int64("max-mem", 0, "heap hard watermark in MiB; crossing half of it degrades diagnosis one rung, crossing it two (0 = off)")
		specPath = flag.String("spec", "", "load the monitor's configuration from this pipeline spec (explicit flags override it)")
		contend  = flag.Bool("contention-profile", false, "sample mutex/block contention so /debug/pprof/mutex and /debug/pprof/block on -listen carry data")
	)
	flag.Parse()

	if *contend {
		obs.EnableContentionProfiling(0, 0)
	}

	// Every flag fills an empty spec; over a -spec file only the flags
	// given explicitly (flag.Visit) override it.
	sp, visit := &spec.PipelineSpec{}, flag.VisitAll
	if *specPath != "" {
		var err error
		if sp, err = spec.Load(*specPath); err != nil {
			log.Fatal(err)
		}
		visit = flag.Visit
	}
	visit(func(f *flag.Flag) {
		switch f.Name {
		case "window":
			// The monitor's analysis window is the spec's flush cadence;
			// the spec's overlap, however it was stated, is kept.
			sp.Stream.Overlap = sp.Resolved().Stream.Overlap
			sp.Stream.Slide, sp.Stream.Window = spec.D(*window), 0
		case "min-score":
			sp.Stream.MinScore = *minScore
		case "workers":
			sp.Diagnosis.Workers = *workers
		case "ring-cap":
			// A bounded ring arms the whole defense set: the ladder
			// derived from the capacity, and panic containment.
			sp.Resilience.RingCapacity, sp.Resilience.Ladder = *ringCap, nil
			sp.Stages.ContainPanics = *ringCap > 0
		case "shed-policy":
			sp.Resilience.ShedPolicy = *shedPol
		case "window-deadline":
			sp.Resilience.WindowDeadline = spec.D(*deadline)
		case "max-mem":
			sp.Resilience.MaxMemBytes, sp.Resilience.SoftMemBytes = *maxMem<<20, 0
		}
	})
	if err := sp.Validate(); err != nil {
		log.Fatal(err)
	}

	// One registry spans the whole daemon: collector ingest, per-window
	// pipeline runs, and monitor alerting all report into it, and the HTTP
	// listener serves it while the stream is still being analysed.
	reg := obs.New()

	col := collector.New(collector.Config{Obs: reg})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: *seed})
	sim := topo.Sim
	simDur := simtime.Duration(dur.Nanoseconds())
	meta := collector.MetaFor(topo)

	mcfg := sp.Resolved().MonitorConfig(reg)
	mon := online.New(meta, mcfg)

	// SIGINT/SIGTERM end the stream early but cleanly: the drain loop
	// stops at the next chunk boundary and the HTTP server is shut down
	// gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var srv *http.Server
	if *listen != "" {
		handler := obs.Handler(reg, func() (bool, string) {
			h, ok := mon.Health()
			if !ok {
				return false, "warming up: no window diagnosed yet"
			}
			st := mon.Stats()
			deg := mon.LastDegradation()
			detail := fmt.Sprintf("%s degradation=%s shed=%d skipped=%d quarantined=%d backlog=%d",
				h, deg, st.RecordsShed, st.WindowsSkipped, st.WindowsQuarantined, mon.Backlog())
			return !h.Degraded() && deg < resilience.Skipped, detail
		})
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatalf("listen %s: %v", *listen, err)
		}
		log.Printf("serving /metrics /healthz /debug/pprof on %s", ln.Addr())
		srv = &http.Server{Handler: handler}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("http server: %v", err)
			}
		}()
	}

	mix := traffic.NewMix(traffic.MixConfig{Flows: 2048, Seed: *seed + 1})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate: simtime.MPPS(*rateMpps), Duration: simDur, Seed: *seed + 2,
	})
	// Natural events: occasional interrupts and microbursts.
	rng := rand.New(rand.NewSource(*seed + 3))
	nfs := topo.AllNFs()
	events := 0
	for at := simtime.Time(10 * simtime.Millisecond); at < simtime.Time(simDur); at = at.Add(30*simtime.Millisecond + simtime.Duration(rng.Int63n(int64(40*simtime.Millisecond)))) {
		if rng.Intn(2) == 0 {
			nf := nfs[rng.Intn(len(nfs))]
			d := 400*simtime.Microsecond + simtime.Duration(rng.Int63n(int64(simtime.Millisecond)))
			sim.InjectInterrupt(nf, at, d, "live")
			fmt.Printf("(injected: %v interrupt at %s at t=%v)\n", d, nf, at)
		} else {
			flow := mix.Flows[rng.Intn(len(mix.Flows))].Tuple
			n := 500 + rng.Intn(1500)
			sched.InjectBurst(traffic.BurstSpec{ID: int32(at / 1000), At: at, Flow: flow, Count: n})
			fmt.Printf("(injected: burst of %d packets at t=%v)\n", n, at)
		}
		events++
	}

	sim.LoadSchedule(sched)
	start := time.Now() //mslint:allow nondet wall-clock progress banner, not diagnosis output
	sim.Run(simtime.Time(simDur) + simtime.Time(50*simtime.Millisecond))
	tr := col.Trace(meta)
	elapsed := time.Since(start).Round(time.Millisecond) //mslint:allow nondet wall-clock progress banner, not diagnosis output
	fmt.Printf("\nsimulated %v with %d natural events (%d records) in %v\n\n",
		simDur, events, len(tr.Records), elapsed)

	// Stream records through the monitor's drain loop, as a deployment's
	// transport shim would, honouring the retry policy and cancellation.
	if err := online.FeedSource(ctx, mon, &chunkSource{records: tr.Records, chunk: 4096}, func(a online.Alert) {
		fmt.Println("ALERT", a)
	}); err != nil {
		log.Printf("stream stopped: %v", err)
	}
	st := mon.Stats()
	fmt.Printf("\nmonitor: %d windows, %d victims diagnosed, %d alerts\n",
		st.Windows, st.Victims, st.Alerts)
	ss, _ := mon.StreamStats()
	fmt.Printf("stream: %d segments sealed (%d evicted, %d retained, %.1f MiB), %d records, %d journeys\n",
		ss.EvictedTotal+ss.RetainedSegments, ss.EvictedTotal, ss.RetainedSegments,
		float64(ss.RetainedBytes)/(1<<20), ss.Records, ss.Journeys)
	if mcfg.Resilience.Enabled() {
		fmt.Printf("resilience: degradation=%s degraded=%d shed=%d records (%d windows), skipped=%d, quarantined=%d, deadline-exceeded=%d\n",
			mon.LastDegradation(), st.Degraded, st.RecordsShed, st.WindowsShed,
			st.WindowsSkipped, st.WindowsQuarantined, st.DeadlineExceeded)
	}

	if srv != nil && *hold > 0 {
		log.Printf("stream finished; holding HTTP endpoints for %v (signal to stop)", *hold)
		select {
		case <-time.After(*hold):
		case <-ctx.Done():
		}
	}
	if srv != nil {
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}
}

// chunkSource adapts the in-memory record slice to the monitor's
// RecordSource, delivering fixed-size chunks like a transport would.
type chunkSource struct {
	records []collector.BatchRecord
	chunk   int
	pos     int
}

func (s *chunkSource) Next() ([]collector.BatchRecord, error) {
	if s.pos >= len(s.records) {
		return nil, io.EOF
	}
	end := s.pos + s.chunk
	if end > len(s.records) {
		end = len(s.records)
	}
	out := s.records[s.pos:end]
	s.pos = end
	return out, nil
}

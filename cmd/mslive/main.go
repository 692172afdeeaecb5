// Command mslive demonstrates continuous operation: it runs the 16-NF
// evaluation topology with naturally occurring problems (interrupts,
// microbursts) and streams the collector's records through a serving-tier
// tenant, printing the alerts its analysis windows raised — Microscope as
// a monitoring daemon rather than a post-mortem tool.
//
// mslive is a single-tenant front end over msserve's runtime: it hosts one
// tenant, "live", in an in-process serve.Server and feeds it the way an
// msserve client does, in 4096-record chunks that are resent after a pause
// while the tenant's ingest queue is full, then one flush. The ALERT lines
// are the tenant's retained alerts (the newest 1024).
//
// With -listen it also serves msserve's HTTP API for that server: the
// tenant routes under /tenants/live/, Prometheus metrics at /metrics (the
// collector's series plus the tenant's, labeled tenant="live"), liveness
// at /healthz (503 when the latest window's trace health is degraded or
// the window ran at the skipped rung), and the standard Go profiler under
// /debug/pprof/.
//
// The overload defenses are armed with -ring-cap (bounded ingest plus the
// degradation ladder), and tuned with -shed-policy, -window-deadline, and
// -max-mem; like every tenant, the monitor always contains panics.
// SIGINT/SIGTERM stop the stream cleanly at the next chunk: the stats so
// far are printed, then the tenant drains (its queue is fed and its pending
// window flushed) and the HTTP server shuts down after it.
//
// The tenant's configuration is a declarative pipeline spec (the same
// document msserve tenants use). The configuration flags are fields of
// that spec: without -spec they fill an empty one, with -spec file.json
// only the flags given explicitly on the command line override the file.
// The topology is always the simulated deployment's.
//
//	mslive -dur 500ms -window 100ms
//	mslive -dur 2s -listen :9090 -hold 30s -ring-cap 200000 -window-deadline 2s
//	mslive -dur 2s -spec tenant.json
package main

import (
	"context"
	"errors"
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
	"microscope/internal/serve"
	"microscope/internal/simtime"
	"microscope/internal/spec"
	"microscope/internal/traffic"
)

// chunk is how many records one ingest call carries.
const chunk = 4096

func main() {
	log.SetFlags(0)
	log.SetPrefix("mslive: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		log.Fatal(err)
	}
}

// settings are the command-line values that are not spec fields.
type settings struct {
	dur, hold time.Duration
	rateMpps  float64
	seed      int64
	listen    string
	contend   bool
}

// parse reads the command line into the run's settings and the tenant's
// pipeline spec (validated, without a topology).
func parse(args []string) (*settings, *spec.PipelineSpec, error) {
	fs := flag.NewFlagSet("mslive", flag.ContinueOnError)
	st := &settings{}
	fs.DurationVar(&st.dur, "dur", 500*time.Millisecond, "simulated duration")
	window := fs.Duration("window", 100*time.Millisecond, "window slide: how often a window is analysed; each window covers the slide plus the stream overlap (20 ms unless -spec sets it)")
	fs.Float64Var(&st.rateMpps, "rate", 1.2, "offered load in Mpps")
	fs.Int64Var(&st.seed, "seed", 1, "random seed")
	minScore := fs.Float64("min-score", 100, "alert threshold (packets of blame)")
	workers := fs.Int("workers", 0, "parallel diagnosis workers per window (0 = GOMAXPROCS, 1 = sequential; alerts are identical)")
	fs.StringVar(&st.listen, "listen", "", "serve the tenant API, /metrics, /healthz and /debug/pprof on this address (e.g. :9090; empty = off)")
	fs.DurationVar(&st.hold, "hold", 0, "keep serving the HTTP endpoints this long after the stream ends")
	ringCap := fs.Int("ring-cap", 0, "bound a window to this many records and arm the degradation ladder (0 = unbounded, no ladder)")
	shedPol := fs.String("shed-policy", "drop-oldest", "what a full window sheds: drop-oldest (windows) or reject-new (arrivals)")
	deadline := fs.Duration("window-deadline", 0, "wall-clock budget per analysis window; an overrunning window is skipped and counted (0 = none)")
	maxMem := fs.Int64("max-mem", 0, "heap hard watermark in MiB; crossing half of it degrades diagnosis one rung, crossing it two (0 = off)")
	specPath := fs.String("spec", "", "load the monitor's configuration from this pipeline spec (explicit flags override it)")
	fs.BoolVar(&st.contend, "contention-profile", false, "sample mutex/block contention so /debug/pprof/mutex and /debug/pprof/block on -listen carry data")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}

	// Every flag fills an empty spec; over a -spec file only the flags
	// given explicitly (fs.Visit) override it.
	sp, visit := &spec.PipelineSpec{}, fs.VisitAll
	if *specPath != "" {
		var err error
		if sp, err = spec.Load(*specPath); err != nil {
			return nil, nil, err
		}
		visit = fs.Visit
	}
	visit(func(f *flag.Flag) {
		switch f.Name {
		case "window":
			// The monitor's analysis window is the spec's flush cadence.
			sp.Stream.Slide = spec.D(*window)
		case "min-score":
			sp.Stream.MinScore = *minScore
		case "workers":
			sp.Diagnosis.Workers = *workers
		case "ring-cap":
			sp.Resilience.RingCapacity = *ringCap
		case "shed-policy":
			sp.Resilience.ShedPolicy = *shedPol
		case "window-deadline":
			sp.Resilience.WindowDeadline = spec.D(*deadline)
		case "max-mem":
			sp.Resilience.MaxMemBytes = *maxMem << 20
		}
	})
	if err := sp.Validate(); err != nil {
		return nil, nil, err
	}
	return st, sp, nil
}

// simulate runs the evaluation topology with natural events, announcing
// each injected event on stdout, and returns the collected trace. reg (may
// be nil) receives the collector's metrics.
func simulate(st *settings, reg *obs.Registry, stdout io.Writer) *collector.Trace {
	col := collector.New(collector.Config{Obs: reg})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: st.seed})
	sim := topo.Sim
	simDur := simtime.Duration(st.dur.Nanoseconds())

	mix := traffic.NewMix(traffic.MixConfig{Flows: 2048, Seed: st.seed + 1})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate: simtime.MPPS(st.rateMpps), Duration: simDur, Seed: st.seed + 2,
	})
	// Natural events: occasional interrupts and microbursts.
	rng := rand.New(rand.NewSource(st.seed + 3))
	nfs := topo.AllNFs()
	events := 0
	for at := simtime.Time(10 * simtime.Millisecond); at < simtime.Time(simDur); at = at.Add(30*simtime.Millisecond + simtime.Duration(rng.Int63n(int64(40*simtime.Millisecond)))) {
		if rng.Intn(2) == 0 {
			nf := nfs[rng.Intn(len(nfs))]
			d := 400*simtime.Microsecond + simtime.Duration(rng.Int63n(int64(simtime.Millisecond)))
			sim.InjectInterrupt(nf, at, d, "live")
			fmt.Fprintf(stdout, "(injected: %v interrupt at %s at t=%v)\n", d, nf, at)
		} else {
			flow := mix.Flows[rng.Intn(len(mix.Flows))].Tuple
			n := 500 + rng.Intn(1500)
			sched.InjectBurst(traffic.BurstSpec{ID: int32(at / 1000), At: at, Flow: flow, Count: n})
			fmt.Fprintf(stdout, "(injected: burst of %d packets at t=%v)\n", n, at)
		}
		events++
	}

	sim.LoadSchedule(sched)
	start := time.Now() //mslint:allow nondet wall-clock progress banner, not diagnosis output
	sim.Run(simtime.Time(simDur) + simtime.Time(50*simtime.Millisecond))
	tr := col.Trace(collector.MetaOf(topo.Sim))
	elapsed := time.Since(start).Round(time.Millisecond) //mslint:allow nondet wall-clock progress banner, not diagnosis output
	fmt.Fprintf(stdout, "\nsimulated %v with %d natural events (%d records) in %v\n\n",
		simDur, events, len(tr.Records), elapsed)
	return tr
}

// run is the testable daemon body. ready (when non-nil, and only with
// -listen) receives the bound listen address once the stream is diagnosed
// and its results printed, while the endpoints still serve them; ctx
// cancellation stops the stream or the -hold early.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	st, sp, err := parse(args)
	if err != nil {
		return err
	}
	if st.contend {
		obs.EnableContentionProfiling(0, 0)
		defer obs.DisableContentionProfiling()
	}

	// One registry spans the daemon: the collector reports into the
	// server's registry, the tenant into its own labeled one, and /metrics
	// serves both while the trace is simulated and analysed.
	reg := obs.New()
	srv := serve.NewServer(serve.ServerConfig{Obs: reg})
	var hs *http.Server
	var addr string
	if st.listen != "" {
		ln, err := net.Listen("tcp", st.listen)
		if err != nil {
			return fmt.Errorf("listen %s: %w", st.listen, err)
		}
		addr = ln.Addr().String()
		log.Printf("serving the tenant API, /metrics, /healthz and /debug/pprof on %s", addr)
		hs = &http.Server{Handler: serve.Handler(srv)}
		go func() {
			if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("http server: %v", err)
			}
		}()
	}
	// As msserve shuts down: the tenant drains first, the HTTP server
	// closes after it.
	defer func() {
		shctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			log.Printf("drain: %v", err)
		}
		if hs != nil {
			if err := hs.Shutdown(shctx); err != nil {
				log.Printf("http shutdown: %v", err)
			}
		}
	}()

	tr := simulate(st, reg, stdout)
	sp.Topology = spec.FromMeta(tr.Meta)
	tn, err := srv.Create("live", sp)
	if err != nil {
		return err
	}
	if err := feed(ctx, tn, tr.Records); err != nil {
		log.Printf("stream stopped: %v", err)
	}
	for _, a := range tn.Alerts() {
		fmt.Fprintln(stdout, "ALERT", a)
	}
	status := tn.Status().Stats
	fmt.Fprintf(stdout, "\nmonitor: %d windows, %d victims diagnosed, %d alerts\n",
		status.Windows, status.Victims, status.Alerts)
	if tn.Spec.ResilienceConfig().Enabled() {
		fmt.Fprintf(stdout, "resilience: degradation=%s degraded=%d shed=%d records (%d windows), skipped=%d, quarantined=%d, deadline-exceeded=%d\n",
			tn.Degradation(), status.Degraded, status.RecordsShed, status.WindowsShed,
			status.WindowsSkipped, status.WindowsQuarantined, status.DeadlineExceeded)
	}

	if hs != nil {
		if ready != nil {
			ready <- addr
		}
		if st.hold > 0 {
			log.Printf("stream finished; holding HTTP endpoints for %v (signal to stop)", st.hold)
			select {
			case <-time.After(st.hold):
			case <-ctx.Done():
			}
		}
	}
	return nil
}

// feed hands recs to the tenant the way a client posts them to msserve:
// chunk records at a time, then one flush. It stops at a chunk boundary
// when ctx is done.
func feed(ctx context.Context, tn *serve.Tenant, recs []collector.BatchRecord) error {
	for i := 0; i < len(recs); i += chunk {
		part := recs[i:min(i+chunk, len(recs))]
		if err := resend(ctx, func() error { return tn.Enqueue(part) }); err != nil {
			return err
		}
	}
	return resend(ctx, func() error { return tn.Flush(ctx) })
}

// resend calls send until the tenant takes it, pausing while the tenant's
// ingest queue is full (ErrBackpressure, a 429 over HTTP).
func resend(ctx context.Context, send func() error) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := send(); !errors.Is(err, serve.ErrBackpressure) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

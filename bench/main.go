// Command bench is Microscope's end-to-end load harness: it builds msserve
// and msdiag from the checkout, generates traces from a seed through the
// public facade, drives the real binaries as child processes, checks every
// output against an in-process reference run of the same input, and prints
// each metric of BENCHMARK.json as "name value unit". See README.md.
//
//	bash bench/run.sh --workload serve-bulk-sat --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh -workload all            # every workload, every metric
//	bash bench/run.sh -workload all -repeat 3  # run-to-run spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Values of -trace: which metrics the result line carries.
const (
	traceOff  = 0 // end-to-end metrics; the reference run records no spans
	traceOn   = 1 // per-layer metrics from a traced reference run
	traceBoth = 2 // both sets (the default)
)

// options are the settings of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   int
	short   bool
	// root is the checkout; bin holds the built msserve and msdiag, empty
	// when -short hosts the serving tier in-process.
	root, bin string
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// all holds every metric measured, whatever -trace selected.
	all metrics
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cleanupOnSignal()
	os.Exit(mainExit())
}

// mainExit runs the harness and returns its exit code. The deferred cleanup
// also runs while a panic unwinds, so a crash still kills the children and
// removes the temporary directories before it is reported.
func mainExit() int {
	defer cleanup()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 0, "how long one run measures (default 8, or 1 with -short)")
		trace   = fs.Int("trace", traceBoth, "metrics on the result line: 0 end-to-end, 1 per-layer, 2 both")
		short   = fs.Bool("short", false, "small inputs and an in-process serving tier, for the tests")
		repeat  = fs.Int("repeat", 1, "run each workload this often and report the run-to-run spread against BENCHMARK.json's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace, short: *short}
	if opts.seconds == 0 {
		opts.seconds = 8
		if opts.short {
			opts.seconds = 1
		}
	}
	if opts.seconds < 0 || opts.trace < traceOff || opts.trace > traceBoth || *repeat < 1 {
		return fmt.Errorf("-seconds must be positive, -trace 0, 1 or 2, -repeat at least 1")
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}

	var err error
	if opts.root, err = findRoot(); err != nil {
		return err
	}
	t := now()
	if opts.bin, err = buildBinaries(opts.root); err != nil {
		return err
	}
	printHost(opts.root)
	fmt.Printf("# built msserve and msdiag in %.2fs\n", since(t).Seconds())

	runs := make(map[string][]metrics)
	failed := false
	for r := 0; r < *repeat; r++ {
		for _, w := range selected {
			fmt.Printf("# workload %s seed %d seconds %g\n", w.name, opts.seed, opts.seconds)
			res, err := runWorkload(w, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			runs[w.name] = append(runs[w.name], res.all)
			failed = failed || !res.Correct
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", line)
		}
	}
	if *repeat > 1 {
		ok, err := reportSpread(opts.root, selected, runs)
		if err != nil {
			return err
		}
		failed = failed || !ok
	}
	if failed {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// runWorkload runs one workload once and prints its metrics.
func runWorkload(w workload, opts options) (*result, error) {
	var (
		m   metrics
		v   *verdict
		err error
	)
	if w.offline {
		m, v, err = runOffline(w, opts)
	} else {
		m, v, err = runServe(w, opts)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range v.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
	fmt.Printf("# attempted %d failed %d failed_frac %.6g\n", v.attempted, v.failed, float64(v.failed)/float64(v.attempted))
	res := &result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: make(map[string]metricValue), all: m}
	if opts.trace != traceOn {
		m.print(os.Stdout, endToEnd)
		for _, d := range endToEnd {
			val, ok := m[d.name]
			if !ok || val == 0 {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			res.Metrics[d.name] = metricValue{val, d.unit}
		}
	}
	if opts.trace != traceOff {
		m.print(os.Stdout, perLayer)
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{m[d.name], d.unit}
		}
	}
	return res, nil
}

// runServe measures one serve workload: set-up (several times, for a
// steady setup_s), the end-to-end run against the serving process, then the
// in-process reference run of the same bodies that the output is checked
// against and, traced, the per-layer numbers come from.
func runServe(w workload, opts options) (metrics, *verdict, error) {
	sz := sizesFor(opts.short)
	bin := opts.bin
	if opts.short {
		bin = ""
	}
	var (
		l      *lap
		t      *target
		setups []float64
	)
	for i := 0; i < sz.setups; i++ {
		if t != nil {
			t.stop()
		}
		t0 := now()
		l = genLap(opts.seed, sz.lapDur)
		var err error
		if t, err = startTarget(w, l, bin); err != nil {
			return nil, nil, err
		}
		setups = append(setups, since(t0).Seconds())
	}
	// Set-up left garbage several laps large; collect it now so that the
	// collector does not run beside the sender.
	runtime.GC()
	obs, err := drive(w, l, t, opts.seconds)
	// The tenant is not deleted first: everything was read before, and
	// stopping the process is all that is left to do.
	t.stop()
	if err != nil {
		return nil, nil, err
	}

	var tr *tracer
	if opts.trace != traceOff {
		tr = newTracer()
	}
	ref, err := runInproc(w, l, obs.bodies, tr)
	if err != nil {
		return nil, nil, err
	}
	v := verify(w, l, obs, ref)

	mrec := float64(obs.records) / 1e6
	m := metrics{
		"setup_s":           median(setups),
		"records_per_s":     float64(obs.records) / obs.busy.Seconds(),
		"report_lag_ms_p50": percentile(v.lagMs, 50),
		"cpu_s_per_mrec":    obs.cpu.Seconds() / mrec,
		"rss_mb_peak":       obs.rssMB,

		"serve.posts":              float64(obs.posts),
		"serve.refused_429":        float64(obs.refused),
		"serve.accept_ratio":       float64(obs.bodies) / float64(obs.posts),
		"serve.bytes_per_rec":      float64(obs.bytes) / float64(obs.records),
		"serve.queued_chunks_max":  float64(obs.queuedMax),
		"serve.retained_bytes":     float64(obs.retainedBytes),
		"serve.report_lag_ms_p90":  percentile(v.lagMs, 90),
		"serve.report_lag_samples": float64(len(v.lagMs)),
		"loadgen.encode_s":         obs.encode.Seconds(),
		"core.culprit_hit_frac":    float64(v.hits) / float64(max(v.injections, 1)),
	}
	tail := tailPercentile(len(v.lagMs))
	m["serve.report_lag_tail_pct"] = tail
	m["serve.report_lag_ms_tail"] = percentile(v.lagMs, tail)
	sort.Float64s(obs.postMs)
	sort.Float64s(obs.pollMs)
	sort.Float64s(obs.sendLagMs)
	m["serve.post_ms_p50"] = percentile(obs.postMs, 50)
	m["serve.post_ms_p95"] = percentile(obs.postMs, 95)
	m["serve.poll_ms_p50"] = percentile(obs.pollMs, 50)
	m["loadgen.send_lag_ms_p95"] = percentile(obs.sendLagMs, 95)
	if tr == nil {
		return m, v, nil
	}

	// The traced run's own numbers.
	recs := float64(ref.records)
	self := tr.selfTimes()
	perRec := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / recs }
	m["collector.encode_ns_per_rec"] = perRec(self["loadgen.encode"])
	m["collector.decode_s"] = self["collector.decode"].Seconds()
	m["collector.decode_ns_per_rec"] = perRec(self["collector.decode"])
	m["serve.json_decode_ns_per_rec"] = perRec(self["serve.json_decode"])
	if !w.json && ref.decodeSampled > 0 {
		m["collector.decode_allocs_per_rec"] = float64(ref.decodeAllocs) / float64(ref.decodeSampled)
	}
	m["online.feed_self_s"] = self["online.feed"].Seconds()
	m["online.feed_self_ns_per_rec"] = perRec(self["online.feed"])
	m["online.windows"] = float64(ref.stats.Windows)
	m["online.reports"] = float64(len(ref.reports))
	m["online.alerts"] = float64(ref.stats.Alerts)
	m["online.late_dropped"] = float64(ref.stats.LateDropped)
	m["online.records_shed"] = float64(ref.stats.RecordsShed)
	m["online.degraded_windows"] = float64(ref.stats.Degraded)
	m["tracestore.seal_s"] = self["tracestore.seal"].Seconds()
	m["tracestore.seal_ns_per_rec"] = perRec(self["tracestore.seal"])
	m["tracestore.window_s"] = self["tracestore.window"].Seconds()
	m["tracestore.window_ms_p50"] = median(tr.durations("tracestore.window"))
	m["tracestore.index_s"] = self["tracestore.index"].Seconds()
	m["tracestore.retained_bytes"] = float64(ref.retainedBytes)
	m["tracestore.unmatched_frac"] = ref.unmatchedFrac
	m["core.victims_s"] = self["core.victims"].Seconds()
	m["core.diagnose_s"] = self["core.diagnose"].Seconds()
	m["core.diagnose_us_per_victim"] = float64(self["core.diagnose"].Microseconds()) / float64(max(ref.victims, 1))
	m["core.victims"] = float64(ref.victims)
	m["pipeline.fingerprint_s"] = self["pipeline.fingerprint"].Seconds()
	total := rollUp(m, tr, self)
	m["trace.e2e_ratio"] = total.Seconds() / obs.cpu.Seconds()

	// The untraced baseline: one lap (or the whole run if shorter) of the
	// same job with no tracer, against the traced run's first bodies.
	n := min(obs.bodies, newBodies(l, w.bodyRecs).perLap)
	plain, err := runInproc(w, l, n, nil)
	if err != nil {
		return nil, nil, err
	}
	var traced time.Duration
	for _, s := range tr.spans {
		if s.Parent == -1 && s.Name == "inproc.body" && s.Body < n {
			traced += time.Duration(s.End - s.Start)
		}
	}
	m["inproc.records_per_s"] = float64(plain.records) / plain.job.Seconds()
	// plain.job also holds the flush, which the traced bodies do not; one
	// window in a lap's worth.
	m["trace.overhead_frac"] = traced.Seconds()/plain.job.Seconds() - 1
	return m, v, writeSpans(opts.root, w.name, tr)
}

// rollUp adds the layer shares, the traced total and the coverage, and
// returns the total: the time of every root span but the load generator's.
func rollUp(m metrics, tr *tracer, self map[string]time.Duration) time.Duration {
	var total time.Duration
	for _, s := range tr.spans {
		if s.Parent == -1 && s.Name != "loadgen.encode" {
			total += time.Duration(s.End - s.Start)
		}
	}
	layers := make(map[string]time.Duration)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	var covered time.Duration
	for _, name := range names {
		layer, _, _ := strings.Cut(name, ".")
		if layer == "loadgen" || layer == "inproc" {
			continue
		}
		layers[layer] += self[name]
		covered += self[name]
	}
	for _, layer := range []string{"collector", "serve", "online", "tracestore", "core", "pipeline", "patterns"} {
		m["share."+layer] = layers[layer].Seconds() / total.Seconds()
	}
	m["trace.total_s"] = total.Seconds()
	m["trace.coverage"] = covered.Seconds() / total.Seconds()
	return total
}

// runOffline measures offline-batch: msdiag, start to exit, over a trace
// directory, several times; the in-process pipeline over the same
// directory is the reference and the traced run.
func runOffline(w workload, opts options) (metrics, *verdict, error) {
	sz := sizesFor(opts.short)
	dir, err := tempDir(opts.root)
	if err != nil {
		return nil, nil, err
	}
	var (
		l      *lap
		setups []float64
	)
	for i := 0; i < sz.offlineSetups; i++ {
		t0 := now()
		if l, err = genOfflineTrace(dir, opts.seed, sz.offlineDur); err != nil {
			return nil, nil, err
		}
		setups = append(setups, since(t0).Seconds())
	}

	var (
		runs          []*diagRun
		wall, cpu, rs []float64
	)
	limit := time.Duration(opts.seconds * float64(time.Second))
	for t0 := now(); len(runs) < sz.offlineReps || since(t0) < limit; {
		r, err := runMsdiag(opts.bin, dir, sz.offlineVictims)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, r)
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		rs = append(rs, r.rssMB)
	}

	var tr *tracer
	if opts.trace != traceOff {
		tr = newTracer()
	}
	want, res, err := offlineReference(dir, sz.offlineVictims, tr)
	if err != nil {
		return nil, nil, err
	}
	v := &verdict{attempted: len(runs)}
	for i, r := range runs {
		if strings.Join(r.lines, "\n") != strings.Join(want, "\n") {
			v.fail(1, "msdiag run %d printed\n%s\nwant\n%s", i, strings.Join(r.lines, "\n"), strings.Join(want, "\n"))
		}
	}
	v.injections, v.hits = offlineHits(l, res)
	if v.hits == 0 {
		v.fail(1, "no injected fault was blamed")
	}

	mrec := float64(len(l.recs)) / 1e6
	m := metrics{
		"setup_s":               median(setups),
		"records_per_s":         float64(len(l.recs)) / median(wall),
		"report_lag_ms_p50":     median(wall) * 1000,
		"cpu_s_per_mrec":        median(cpu) / mrec,
		"rss_mb_peak":           median(rs),
		"core.culprit_hit_frac": float64(v.hits) / float64(max(v.injections, 1)),
	}
	if tr == nil {
		return m, v, nil
	}
	self := tr.selfTimes()
	m["collector.read_s"] = self["collector.read"].Seconds()
	m["tracestore.reconstruct_s"] = self["tracestore.reconstruct"].Seconds()
	m["tracestore.index_s"] = self["tracestore.index"].Seconds()
	m["core.victims_s"] = self["core.victims"].Seconds()
	m["core.diagnose_s"] = self["core.diagnose"].Seconds()
	m["core.diagnose_us_per_victim"] = float64(self["core.diagnose"].Microseconds()) / float64(max(len(res.Victims), 1))
	m["core.victims"] = float64(len(res.Victims))
	m["patterns.aggregate_s"] = self["patterns.aggregate"].Seconds()
	m["patterns.relations"] = float64(res.Relations)
	m["patterns.patterns"] = float64(len(res.Patterns))
	m["tracestore.unmatched_frac"] = res.Health.UnmatchedFrac()
	total := rollUp(m, tr, self)
	m["trace.e2e_ratio"] = total.Seconds() / median(cpu)
	m["inproc.records_per_s"] = float64(len(l.recs)) / total.Seconds()
	return m, v, writeSpans(opts.root, w.name, tr)
}

// writeSpans writes the traced run's spans to bench/out.
func writeSpans(root, name string, tr *tracer) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+name+".json"), doc, 0o644)
}

// printHost prints what the numbers were measured on.
func printHost(root string) {
	model := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# host: cpu %q nproc %d GOMAXPROCS %d %s commit %s\n",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// benchmarkFile is the part of BENCHMARK.json -repeat reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// reportSpread prints, for every end-to-end metric of every repeated
// workload, the median, the range and the relative spread of the runs
// beside BENCHMARK.json's bound, and reports whether every spread stayed
// within its bound.
func reportSpread(root string, selected []workload, runs map[string][]metrics) (bool, error) {
	doc, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(doc, &bf); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	ok := true
	fmt.Printf("# %-18s %-20s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "min", "max", "spread", "bound")
	for _, w := range selected {
		for _, e := range bf.EndToEnd {
			var vals []float64
			for _, m := range runs[w.name] {
				vals = append(vals, m[e.Name])
			}
			sort.Float64s(vals)
			med := median(vals)
			spread := (vals[len(vals)-1] - vals[0]) / med
			verdict := ""
			if spread > e.Bound {
				verdict = " EXCEEDS"
				ok = false
			}
			fmt.Printf("# %-18s %-20s %12.6g %12.6g %12.6g %8.3f %6.2f%s\n",
				w.name, e.Name, med, vals[0], vals[len(vals)-1], spread, e.Bound, verdict)
		}
	}
	return ok, nil
}

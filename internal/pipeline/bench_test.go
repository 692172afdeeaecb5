package pipeline_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"microscope"
	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
)

// The benchmarks below gate themselves on their own run: each compares its
// cases with each other, so machine speed cancels out and no stored
// baseline is involved.
const (
	// minScaling is the ns/op speedup the widest worker count of each
	// BenchmarkDiagnosePipeline family must reach over the narrowest: a
	// parallel refactor that serializes the hot path (a global lock, an
	// arena churning through a pool) slows every worker count together and
	// passes any per-case check, but not this one.
	minScaling = 1.0
	// minStreamSpeedup is the ns/op speedup BenchmarkStreamingWindows'
	// mode=incr must reach over mode=full: the retained stream only earns
	// its complexity while it beats rebuilding every window by this much.
	minStreamSpeedup = 3.0
)

// nsPerOp is the ns/op the testing package reports for b's final run.
func nsPerOp(b *testing.B) float64 {
	return float64(b.Elapsed().Nanoseconds()) / float64(b.N)
}

// scaling is one benchmark family's measured speedup.
type scaling struct {
	family     string  // "workers", "observed/workers"
	base, wide int     // the narrowest and widest worker counts
	speedup    float64 // base ns/op ÷ wide ns/op
}

func (s scaling) String() string {
	return fmt.Sprintf("%s=%d -> %s=%d speedup %.2fx (need %.2fx)", s.family, s.base, s.family, s.wide, s.speedup, minScaling)
}

// checkScaling computes each family's widest-over-narrowest speedup from
// the ns/op measured per family and worker count. It returns a skip note
// instead when the gate cannot apply: at GOMAXPROCS=1 parallel speedup is
// impossible, and a -bench filter may leave no family with two worker
// counts.
func checkScaling(ns map[string]map[int]float64, maxprocs int) (outs []scaling, skip string) {
	if maxprocs <= 1 {
		return nil, "GOMAXPROCS=1, scaling gate skipped (parallel speedup impossible on one CPU)"
	}
	families := make([]string, 0, len(ns))
	for f := range ns {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		base, wide := 0, 0
		for w := range ns[f] {
			if base == 0 || w < base {
				base = w
			}
			wide = max(wide, w)
		}
		if base == wide {
			continue // a -bench filter left one worker count, or none
		}
		outs = append(outs, scaling{family: f, base: base, wide: wide, speedup: ns[f][base] / ns[f][wide]})
	}
	if len(outs) == 0 {
		return nil, "no family ran at two worker counts, scaling gate skipped"
	}
	return outs, ""
}

// checkStream computes the mode=full ÷ mode=incr ns/op ratio, or a skip
// note when a -bench filter left either mode out (0 ns/op).
func checkStream(fullNS, incrNS float64) (speedup float64, skip string) {
	if fullNS <= 0 || incrNS <= 0 {
		return 0, "mode=full or mode=incr did not run, stream gate skipped"
	}
	return fullNS / incrNS, ""
}

// BenchmarkDiagnosePipeline measures the staged pipeline end to end
// (victims → diagnose → patterns) on the 16-NF evaluation workload at
// several worker counts. The trace is simulated and reconstructed once;
// each iteration runs a full diagnosis with a fresh engine, so the
// single-flight memo cache is measured, not amortized away. It fails when,
// in either family, the widest worker count misses minScaling over the
// narrowest.
func BenchmarkDiagnosePipeline(b *testing.B) {
	tr := buildTrace(42, 40*simtime.Millisecond)
	st := microscope.Reconstruct(tr)
	ns := map[string]map[int]float64{"workers": {}, "observed/workers": {}}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			victims := 0
			b.ReportAllocs() // bytes/op and allocs/op always, -benchmem or not
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := microscope.DiagnoseStore(st, microscope.WithMaxVictims(300), microscope.WithWorkers(w))
				victims = len(rep.Diagnoses)
			}
			b.ReportMetric(float64(victims)*float64(b.N)/b.Elapsed().Seconds(), "victims/s")
			ns["workers"][w] = nsPerOp(b)
		})
	}
	// The same pipeline with a live metrics registry attached: the
	// delta between workers=N and observed/workers=N
	// quantifies the enabled-observability cost (the disabled cost is the
	// plain rows staying flat release over release).
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("observed/workers=%d", w), func(b *testing.B) {
			victims := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg := microscope.NewRegistry()
				rep := microscope.DiagnoseStore(st,
					microscope.WithMaxVictims(300),
					microscope.WithWorkers(w),
					microscope.WithObserver(reg))
				victims = len(rep.Diagnoses)
			}
			b.ReportMetric(float64(victims)*float64(b.N)/b.Elapsed().Seconds(), "victims/s")
			ns["observed/workers"][w] = nsPerOp(b)
		})
	}
	outs, skip := checkScaling(ns, runtime.GOMAXPROCS(0))
	if skip != "" {
		b.Log(skip)
	}
	for _, o := range outs {
		if o.speedup < minScaling {
			b.Errorf("scaling failure: %s", o)
		} else {
			b.Logf("scaling ok: %s", o)
		}
	}
}

// BenchmarkStreamingWindows measures the online window loop in its two
// modes over the same sliding-window geometry: a 0.25 ms reporting
// cadence over 5 ms of retained analysis context (span/slide = 20, the
// fast-alert regime the streaming index exists for — overlap spans many
// slides, so a cold rebuild re-reconstructs each record ~20 times while
// the stream seals it into its grid segment exactly once).
//
//	mode=full — the cold reference: every flush re-runs the whole
//	            pipeline (sort, Build, Reconstruct, Index, fresh-engine
//	            diagnosis) over the pending window's records.
//	mode=incr — StreamState.RunWindow over retained stream state (what the
//	            online monitor runs): new records
//	            are sealed into grid segments exactly once, the window
//	            store is assembled by merging sealed segments, and the
//	            diagnosis memo carries across windows.
//
// The benchmark fails when mode=incr misses minStreamSpeedup over mode=full
// in ns/op (what `make bench-stream` runs); retained_bytes records the
// incremental path's steady-state retained footprint.
func BenchmarkStreamingWindows(b *testing.B) {
	const (
		w = simtime.Millisecond / 4
		o = 19 * simtime.Millisecond / 4
	)
	tr := buildTrace(11, 20*simtime.Millisecond)
	var last simtime.Time
	for i := range tr.Records {
		if tr.Records[i].At > last {
			last = tr.Records[i].At
		}
	}
	// Pre-slice the per-window pending buffers (monitor-style: retained
	// overlap + new records) so buffer management is outside both paths.
	type win struct {
		end  simtime.Time
		recs []collector.BatchRecord
	}
	var wins []win
	for end := simtime.Time(w); end <= last+simtime.Time(w); end += simtime.Time(w) {
		lo := end - simtime.Time(w+o)
		var recs []collector.BatchRecord
		for i := range tr.Records {
			if at := tr.Records[i].At; at >= lo && at <= end {
				recs = append(recs, tr.Records[i])
			}
		}
		wins = append(wins, win{end: end, recs: recs})
	}
	// SkipPatterns mirrors the online monitor's own configuration: the
	// monitor merges raw pattern evidence across flushes itself, so the
	// per-window loop stops after diagnosis in both modes.
	cfg := pipeline.Config{Workers: 1, SkipPatterns: true, Diagnosis: core.Config{MaxVictims: 64}}
	ctx := context.Background()
	var fullNS, incrNS float64

	b.Run("mode=full", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		victims := 0
		for i := 0; i < b.N; i++ {
			for _, wn := range wins {
				res, err := pipeline.RunContext(ctx, &collector.Trace{Meta: tr.Meta, Records: wn.recs}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				victims += len(res.Victims)
			}
		}
		b.ReportMetric(float64(len(wins))*float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		if victims == 0 {
			b.Fatal("no victims diagnosed — workload degenerate")
		}
		fullNS = nsPerOp(b)
	})
	b.Run("mode=incr", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		victims := 0
		var retained int64
		for i := 0; i < b.N; i++ {
			ss, err := pipeline.NewStreamState(tr.Meta, w, o, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, wn := range wins {
				res, runErr := ss.RunWindow(ctx, wn.end, resilience.Full, wn.recs)
				if runErr != nil {
					b.Fatal(runErr)
				}
				victims += len(res.Victims)
			}
			retained = ss.Stats().RetainedBytes
		}
		b.ReportMetric(float64(len(wins))*float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		b.ReportMetric(float64(retained), "retained_bytes")
		if victims == 0 {
			b.Fatal("no victims diagnosed — workload degenerate")
		}
		incrNS = nsPerOp(b)
	})
	switch speedup, skip := checkStream(fullNS, incrNS); {
	case skip != "":
		b.Log(skip)
	case speedup < minStreamSpeedup:
		b.Errorf("stream speedup failure: mode=full -> mode=incr %.2fx (need %.2fx)", speedup, minStreamSpeedup)
	default:
		b.Logf("stream speedup ok: mode=full -> mode=incr %.2fx (need %.2fx)", speedup, minStreamSpeedup)
	}
}

func TestCheckScalingPassAndFail(t *testing.T) {
	outs, skip := checkScaling(map[string]map[int]float64{"workers": {1: 1000, 2: 600, 8: 250}}, 8)
	if skip != "" || len(outs) != 1 {
		t.Fatalf("want one family, got %v (%q)", outs, skip)
	}
	if o := outs[0]; o.base != 1 || o.wide != 8 || o.speedup < 3.99 || o.speedup > 4.01 {
		t.Errorf("got %+v, want workers=1 -> workers=8 at 4.0x", o)
	}
	// Inverted (the widest slower than the narrowest): the miss surfaces.
	outs, skip = checkScaling(map[string]map[int]float64{"workers": {1: 1000, 8: 1500}}, 8)
	if skip != "" || len(outs) != 1 || outs[0].speedup >= minScaling {
		t.Errorf("negative scaling not surfaced: %v (%q)", outs, skip)
	}
}

func TestCheckScalingGroupsFamiliesSeparately(t *testing.T) {
	outs, skip := checkScaling(map[string]map[int]float64{
		"workers":          {1: 1000, 8: 200},
		"observed/workers": {1: 1200, 8: 400},
	}, 8)
	if skip != "" || len(outs) != 2 {
		t.Fatalf("want two families, got %v (%q)", outs, skip)
	}
	// Sorted by family: observed/workers before workers.
	if outs[0].family != "observed/workers" || outs[1].family != "workers" {
		t.Errorf("family grouping wrong: %v", outs)
	}
	if outs[0].speedup < 2.99 || outs[0].speedup > 3.01 || outs[1].speedup < 4.99 || outs[1].speedup > 5.01 {
		t.Errorf("speedups = %v, want 3.0 and 5.0", outs)
	}
}

func TestCheckScalingSkipsSingleProc(t *testing.T) {
	// Slower when wide, but on one CPU: not a failure.
	if outs, skip := checkScaling(map[string]map[int]float64{"workers": {1: 1000, 8: 1500}}, 1); skip == "" || outs != nil {
		t.Fatalf("GOMAXPROCS=1 run not skipped: %v %q", outs, skip)
	}
}

func TestCheckScalingDegenerate(t *testing.T) {
	// A -bench filter that left one worker count, or no case at all.
	for _, ns := range []map[string]map[int]float64{
		{"workers": {1: 1000}, "observed/workers": {}},
		{"workers": {}, "observed/workers": {}},
	} {
		if outs, skip := checkScaling(ns, 8); skip == "" || outs != nil {
			t.Errorf("%v not skipped: %v %q", ns, outs, skip)
		}
	}
}

func TestCheckStreamPassAndFail(t *testing.T) {
	if speedup, skip := checkStream(9000, 2000); skip != "" || speedup < 4.49 || speedup > 4.51 {
		t.Errorf("speedup = %v (%q), want 4.5", speedup, skip)
	}
	if speedup, skip := checkStream(9000, 4000); skip != "" || speedup >= minStreamSpeedup {
		t.Errorf("insufficient speedup not surfaced: %v (%q)", speedup, skip)
	}
}

func TestCheckStreamSkips(t *testing.T) {
	// Either mode filtered out by -bench measures nothing.
	for _, pair := range [][2]float64{{9000, 0}, {0, 2000}, {0, 0}} {
		if _, skip := checkStream(pair[0], pair[1]); skip == "" {
			t.Errorf("%v not skipped", pair)
		}
	}
}

package pipeline_test

import (
	"context"
	"fmt"
	"testing"

	"microscope"
	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
)

// BenchmarkDiagnosePipeline measures the staged pipeline end to end
// (victims → diagnose → patterns) on the 16-NF evaluation workload at
// several worker counts. The trace is simulated and reconstructed once;
// each iteration runs a full diagnosis with a fresh engine, so the
// single-flight memo cache is measured, not amortized away.
func BenchmarkDiagnosePipeline(b *testing.B) {
	tr := buildTrace(42, 40*simtime.Millisecond)
	st := microscope.Reconstruct(tr)
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
		})
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
// The windows/s ratio between the two modes is what `make bench-stream`
// gates at >= 3x via benchfmt -min-stream-speedup; retained_bytes records
// the incremental path's steady-state retained footprint.
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
	})
}

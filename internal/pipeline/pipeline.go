// Package pipeline is the staged diagnosis pipeline every entry point —
// msdiag and msbench offline, mslive's per-window analysis — routes
// through. It makes the stages of a Microscope run explicit and
// independently timed:
//
//	reconstruct → index → victims → diagnose → patterns
//
// Stage 1 makes the store (tracestore.Build): it rebuilds packet journeys
// from the collected trace (§5) and freezes the store's summaries — per-NF
// delay statistics, the sorted delivered-latency distribution and the
// drain times queuing periods search. Stage 2 warms the store's §7
// queue-length timelines when a queue threshold is set, before any
// goroutine reads them: everything computed once instead of per
// DiagnoseVictim call.
// Stage 3 selects victims (latency / loss). Stage 4 fans the per-victim
// causal diagnosis (§4.1–§4.3) out over a bounded worker pool, sharing a
// single-flight memo cache for recursive upstream queuing-period
// decompositions. Stage 5 aggregates packet-level relations into ranked
// causal patterns (§4.4), with the per-group AutoFocus calls of both
// phases running on the same pool.
//
// Determinism contract: for a fixed input the pipeline's output is
// byte-for-byte identical for every Workers value, including 1
// (sequential), and attaching an observability registry never changes it —
// metrics and spans are write-only side channels.
//
// Cancellation contract: RunContext/RunStoreContext check the context at
// every stage boundary and inside the stage-4/5 worker fan-outs. A
// cancelled run returns the partial Result built so far together with an
// error wrapping ctx.Err(); stages never started leave their Result fields
// zero.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/obs"
	"microscope/internal/patterns"
	"microscope/internal/resilience"
	"microscope/internal/tracestore"
)

// Config tunes a pipeline run.
type Config struct {
	// Diagnosis passes through the engine knobs (victim percentile,
	// recursion depth, queue threshold, the diagnose fan-out's Workers,
	// ...). Its ContainPanics and ChaosHook also govern the stages:
	// with ContainPanics a panic inside a stage surfaces as a
	// *resilience.PanicError from RunContext, with the partial Result,
	// instead of killing the process; ChaosHook also fires at the start
	// of each stage with scope "stage:<name>".
	Diagnosis core.Config
	// Patterns tunes the §4.4 aggregation.
	Patterns patterns.Config
	// SkipPatterns stops after stage 4 — the online monitor merges raw
	// causes itself and never needs patterns.
	SkipPatterns bool
	// Degrade runs the pipeline at a reduced level of the overload
	// degradation ladder. resilience.Full (the zero value) is the normal
	// run; NoPatterns stops after diagnosis (like SkipPatterns);
	// VictimsOnly stops after victim selection; Skipped stops right after
	// reconstruction, reporting only store health. Degraded runs are still
	// deterministic: the same level over the same input yields
	// byte-identical output for every Workers value.
	Degrade resilience.Level
	// Obs receives pipeline metrics: per-stage latency histograms, run
	// counts, and the store/diagnosis/pattern instruments of the stages it
	// is propagated into. nil falls back to the process-wide obs.Default()
	// (disabled unless installed). A pipeline-level registry is pushed down
	// into Diagnosis.Obs and Patterns.Obs unless those are already set.
	Obs *obs.Registry
}

// Result is the full output of a pipeline run.
type Result struct {
	// Store is the reconstructed trace backing everything downstream.
	//
	// In a Result from StreamState.RunWindow (every online monitor
	// window) Store is lent, not given: it is the stream's own window
	// store, the same pointer every window, updated in place when the next
	// RunWindow on that stream starts. Read it until then; keep what must
	// outlive that — a count, a hash, a copied journey — not the pointer.
	// Store.Generation tells a stale holder apart. The rest of the Result
	// (Victims, Diagnoses, Patterns, Health, ...) is the caller's to keep.
	// Results of Run/RunStore own their Store outright.
	Store *tracestore.Store
	// Victims is the stage-3 selection, in canonical victim order.
	Victims []core.Victim
	// Diagnoses holds per-victim ranked causes, parallel to Victims.
	Diagnoses []core.Diagnosis
	// Relations is how many packet-level causal relations stage 5 fed to
	// AutoFocus (0 when SkipPatterns).
	Relations int
	// Patterns is the ranked causal-pattern report (nil when SkipPatterns).
	Patterns []patterns.Pattern
	// Health qualifies the run: trace damage and reconstruction outcome.
	Health tracestore.Health
	// Degradation echoes the ladder level the run executed at (Config.
	// Degrade): LevelFull unless the caller asked for less.
	Degradation resilience.Level
	// ContainedPanics counts victims quarantined by the worker-task
	// containment boundary during this run (0 unless ContainPanics).
	ContainedPanics int64
	// Spans is the run's span tree: a root "pipeline" span (ID 0,
	// Parent -1) with one child of Kind "stage" per executed stage, in
	// execution order, carrying its wall-clock cost. It is always
	// populated, registry or not, so callers introspect stage structure
	// without opting into metrics; with a registry attached the same spans
	// are also recorded into its bounded tracer.
	Spans []obs.Span
}

// Run executes the full pipeline on a collected trace.
func Run(tr *collector.Trace, cfg Config) *Result {
	//mslint:allow ctxflow non-ctx convenience wrapper; cancellable path is RunContext
	res, _ := RunContext(context.Background(), tr, cfg)
	return res
}

// RunContext is Run with cooperative cancellation. The returned Result is
// never nil: on cancellation it carries everything completed before the
// stage that observed ctx.Err(), and the error wraps context.Canceled (or
// DeadlineExceeded) for errors.Is.
func RunContext(ctx context.Context, tr *collector.Trace, cfg Config) (*Result, error) {
	r := newRun(cfg)
	if err := r.stage(ctx, "reconstruct", func() {
		st := tracestore.Build(tr)
		r.res.Store = st
		r.res.Health = st.Health()
		st.RecordObs(r.reg)
	}); err != nil {
		return r.finish(), err
	}
	return r.runStore(ctx)
}

// RunStore executes stages 2–5 on an already-reconstructed store.
func RunStore(st *tracestore.Store, cfg Config) *Result {
	//mslint:allow ctxflow non-ctx convenience wrapper; cancellable path is RunStoreContext
	res, _ := RunStoreContext(context.Background(), st, cfg)
	return res
}

// RunStoreContext is RunStore with cooperative cancellation; see
// RunContext for the partial-result contract.
func RunStoreContext(ctx context.Context, st *tracestore.Store, cfg Config) (*Result, error) {
	r := newRun(cfg)
	r.res.Store = st
	r.res.Health = st.Health()
	st.RecordObs(r.reg)
	return r.runStore(ctx)
}

// run is one pipeline execution: the resolved config, the observability
// registry (nil = disabled), and the Result under construction.
type run struct {
	cfg   Config
	reg   *obs.Registry
	res   *Result
	began time.Time
}

// resolveConfig normalizes a pipeline config — registry resolution and
// push-down into the stage configs — without side effects, so holders of
// long-lived state (the incremental stream) can resolve once without
// counting a run.
func resolveConfig(cfg Config) (Config, *obs.Registry) {
	reg := obs.Or(cfg.Obs)
	if reg != nil {
		// Push the pipeline's registry into the stages so their internal
		// instruments (diagnosis memo counters, pattern phase timings)
		// land in the same place — without clobbering an explicitly
		// different per-stage registry.
		if cfg.Diagnosis.Obs == nil {
			cfg.Diagnosis.Obs = reg
		}
		if cfg.Patterns.Obs == nil {
			cfg.Patterns.Obs = reg
		}
	}
	return cfg, reg
}

func newRun(cfg Config) *run {
	cfg, reg := resolveConfig(cfg)
	if reg != nil {
		reg.Counter("microscope_pipeline_runs_total").Inc()
	}
	//mslint:allow nondet spans and stage timings are observability metadata; diagnosis payloads never read them
	return &run{cfg: cfg, reg: reg, res: &Result{}, began: time.Now()}
}

// stage runs one named stage unless ctx is already done, recording its
// wall-clock cost as a child span and (when a registry is
// attached) a per-stage latency histogram sample. The error, if any, is
// "pipeline canceled during <name> stage" wrapping ctx.Err().
func (r *run) stage(ctx context.Context, name string, fn func()) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("pipeline canceled during %s stage: %w", name, err)
	}
	body := fn
	if hook := r.cfg.Diagnosis.ChaosHook; hook != nil {
		// The hook fires inside the containment boundary so injected
		// stage panics exercise the same recovery path as real ones.
		body = func() {
			hook("stage:" + name)
			fn()
		}
	}
	t := time.Now() //mslint:allow nondet stage timing is observability metadata, not diagnosis output
	var crashed error
	if r.cfg.Diagnosis.ContainPanics {
		crashed = resilience.Contain("stage:"+name, body)
	} else {
		body()
	}
	elapsed := time.Since(t) //mslint:allow nondet stage timing is observability metadata, not diagnosis output
	r.res.Spans = append(r.res.Spans, obs.Span{
		ID:     int32(len(r.res.Spans)) + 1,
		Parent: 0,
		Name:   name,
		Kind:   "stage",
		Start:  t,
		Dur:    elapsed,
	})
	if r.reg != nil {
		r.reg.Histogram("microscope_pipeline_stage_ns{stage=\"" + name + "\"}").Observe(elapsed)
	}
	if crashed != nil {
		if r.reg != nil {
			r.reg.Counter("microscope_pipeline_stage_panics_total").Inc()
		}
		return fmt.Errorf("pipeline crashed during %s stage: %w", name, crashed)
	}
	// A cancellation that raced the stage still counts as completing it:
	// the work is done and its outputs are valid. The next stage boundary
	// observes the context.
	return nil
}

// finish closes the root span (and mirrors the tree into the registry's
// tracer) before the Result is handed back.
func (r *run) finish() *Result {
	root := obs.Span{
		ID:     0,
		Parent: -1,
		Name:   "pipeline",
		Kind:   "pipeline",
		Start:  r.began,
		//mslint:allow nondet span duration is observability metadata, not diagnosis output
		Dur: time.Since(r.began),
	}
	r.res.Spans = append([]obs.Span{root}, r.res.Spans...)
	if r.reg != nil {
		tr := r.reg.Tracer()
		// Remap ordinal IDs onto the tracer's global sequence so trees
		// from successive runs stay distinguishable in the ring.
		base := tr.NewID()
		for i := range r.res.Spans {
			s := r.res.Spans[i]
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			tr.Record(s)
			if i < len(r.res.Spans)-1 {
				tr.NewID()
			}
		}
	}
	return r.res
}

// runStore executes stages 2–5 against r.res.Store, honouring the
// degradation ladder: each level peels stages off the tail of the run.
func (r *run) runStore(ctx context.Context) (*Result, error) {
	return r.runStoreWith(ctx, core.NewEngine(r.cfg.Diagnosis))
}

// runStoreWith is runStore with an injected diagnosis engine. The offline
// paths hand it a fresh engine per run; the incremental streaming path
// injects a long-lived engine whose memo is carried across windows.
func (r *run) runStoreWith(ctx context.Context, eng *core.Engine) (*Result, error) {
	r.res.Degradation = r.cfg.Degrade
	if r.cfg.Degrade >= resilience.Skipped {
		return r.finish(), nil
	}
	st := r.res.Store
	if err := r.stage(ctx, "index", func() {
		st.WarmQueueThreshold(r.cfg.Diagnosis.QueueThreshold)
	}); err != nil {
		return r.finish(), err
	}
	if err := r.stage(ctx, "victims", func() {
		r.res.Victims = eng.FindVictims(st)
	}); err != nil {
		return r.finish(), err
	}
	if r.cfg.Degrade >= resilience.VictimsOnly {
		return r.finish(), nil
	}
	var stageErr error
	err := r.stage(ctx, "diagnose", func() {
		r.res.Diagnoses, stageErr = eng.DiagnoseVictimsContext(ctx, st, r.res.Victims)
	})
	r.res.ContainedPanics = eng.ContainedPanics()
	if err != nil {
		return r.finish(), err
	}
	if stageErr != nil {
		return r.finish(), fmt.Errorf("pipeline canceled during diagnose stage: %w", stageErr)
	}
	if r.cfg.SkipPatterns || r.cfg.Degrade >= resilience.NoPatterns {
		return r.finish(), nil
	}
	if err := r.stage(ctx, "patterns", func() {
		rels := patterns.RelationsFromDiagnoses(st, r.res.Diagnoses, r.cfg.Patterns)
		r.res.Relations = rels.Len()
		r.res.Patterns, stageErr = patterns.AggregateContext(ctx, rels, r.cfg.Patterns)
	}); err != nil {
		return r.finish(), err
	}
	if stageErr != nil {
		return r.finish(), fmt.Errorf("pipeline canceled during patterns stage: %w", stageErr)
	}
	return r.finish(), nil
}

package microscope

import (
	"microscope/internal/core"
	"microscope/internal/obs"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
)

// DegradationLevel is a rung of the overload degradation ladder: how much
// of the pipeline a run executes when resources are short.
type DegradationLevel = resilience.Level

// Degradation-ladder rungs, re-exported.
const (
	// DegradeFull runs the whole pipeline (the default).
	DegradeFull = resilience.Full
	// DegradeNoPatterns skips the §4.4 pattern aggregation.
	DegradeNoPatterns = resilience.NoPatterns
	// DegradeVictimsOnly stops after victim selection.
	DegradeVictimsOnly = resilience.VictimsOnly
	// DegradeSkipped reports only reconstruction health.
	DegradeSkipped = resilience.Skipped
)

// Registry is the observability registry the toolkit reports into:
// counters, gauges, fixed-bucket latency histograms, and a bounded span
// tracer. Create one with NewRegistry, attach it with WithObserver (or
// Options.Metrics), and serve or dump it via its
// WritePrometheus / WriteJSON methods. All methods on a nil *Registry are
// no-ops, so "observability disabled" costs a nil check per event.
type Registry = obs.Registry

// Span is one recorded timing span: pipeline runs and stages, per-victim
// diagnoses. Parent is -1 for roots.
type Span = obs.Span

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.New() }

// Option configures a diagnosis entry point (Diagnose, DiagnoseStore,
// DiagnoseOne, Explain, Victims and their Context variants). Two kinds of
// value satisfy it: the With* functional options below, and an Options
// struct applied wholesale.
type Option interface {
	apply(*Options)
}

// Options is the canonical resolved configuration every facade entry point
// reduces its Option list to. The zero value means "all defaults"; fields
// left zero inherit the documented engine defaults downstream.
type Options struct {
	// VictimPercentile selects latency victims (default 99).
	VictimPercentile float64
	// MaxRecursionDepth caps the §4.3 recursion (default 5).
	MaxRecursionDepth int
	// MaxVictims caps how many victims are diagnosed (0 = all).
	MaxVictims int
	// PatternThreshold is the §4.4 aggregation threshold (default 1%).
	PatternThreshold float64
	// SkipLossVictims disables loss diagnosis.
	SkipLossVictims bool
	// LossVictimsWhenDegraded keeps loss diagnosis active even when the
	// trace health is degraded.
	LossVictimsWhenDegraded bool
	// Workers bounds the parallel fan-out (0 = GOMAXPROCS, 1 = fully
	// sequential). Output is byte-for-byte identical for every value.
	Workers int
	// QueueThreshold is the §7 non-empty-queue extension: a queuing
	// period starts when the queue last held at most this many packets.
	QueueThreshold int
	// SkipPatterns stops the pipeline after per-victim diagnosis.
	SkipPatterns bool
	// Degrade runs the pipeline at a reduced degradation-ladder rung;
	// DegradeFull (zero) is the normal run. Degraded runs stay
	// deterministic for every Workers value.
	Degrade DegradationLevel
	// ContainPanics quarantines a panicking victim (or stage) instead of
	// crashing the process; see WithPanicContainment.
	ContainPanics bool
	// Metrics receives runtime metrics and spans; nil disables
	// observability (beyond the process-wide default, if installed).
	Metrics *Registry
}

// apply merges o into dst wholesale, making Options itself an Option.
func (o Options) apply(dst *Options) { *dst = o }

// optionFunc adapts a closure to the Option interface.
type optionFunc func(*Options)

func (f optionFunc) apply(o *Options) { f(o) }

// WithWorkers bounds the parallel fan-out of every pipeline stage
// (0 = GOMAXPROCS, 1 = fully sequential). Any value produces
// byte-identical reports.
func WithWorkers(n int) Option {
	return optionFunc(func(o *Options) { o.Workers = n })
}

// WithObserver attaches a metrics registry: stage latencies, victim
// counts, memo effectiveness, and spans land in reg. Attaching a registry
// never changes diagnosis output.
func WithObserver(reg *Registry) Option {
	return optionFunc(func(o *Options) { o.Metrics = reg })
}

// WithMaxVictims caps how many victims are diagnosed (0 = all). The cap
// samples evenly across the run rather than truncating.
func WithMaxVictims(n int) Option {
	return optionFunc(func(o *Options) { o.MaxVictims = n })
}

// WithVictimPercentile selects latency victims above this percentile of
// delivered latency (default 99).
func WithVictimPercentile(p float64) Option {
	return optionFunc(func(o *Options) { o.VictimPercentile = p })
}

// WithMaxRecursionDepth caps the §4.3 upstream recursion (default 5).
func WithMaxRecursionDepth(d int) Option {
	return optionFunc(func(o *Options) { o.MaxRecursionDepth = d })
}

// WithPatternThreshold sets the §4.4 significance fraction (default 0.01).
func WithPatternThreshold(th float64) Option {
	return optionFunc(func(o *Options) { o.PatternThreshold = th })
}

// WithQueueThreshold enables the §7 non-empty-queue extension: queuing
// periods start when the queue last held at most n packets.
func WithQueueThreshold(n int) Option {
	return optionFunc(func(o *Options) { o.QueueThreshold = n })
}

// WithoutLossVictims disables loss-victim diagnosis entirely.
func WithoutLossVictims() Option {
	return optionFunc(func(o *Options) { o.SkipLossVictims = true })
}

// WithLossVictimsWhenDegraded keeps loss-victim classification active even
// on a degraded trace (by default a known-damaged trace suppresses it).
func WithLossVictimsWhenDegraded() Option {
	return optionFunc(func(o *Options) { o.LossVictimsWhenDegraded = true })
}

// WithoutPatterns stops the pipeline after per-victim diagnosis, skipping
// the §4.4 aggregation.
func WithoutPatterns() Option {
	return optionFunc(func(o *Options) { o.SkipPatterns = true })
}

// WithDegradation runs the pipeline at a reduced degradation-ladder rung —
// what the online monitor does on its own under overload, exposed here so
// batch callers (and tests) can reproduce a degraded window exactly. The
// report's Degradation field echoes the rung.
func WithDegradation(l DegradationLevel) Option {
	return optionFunc(func(o *Options) { o.Degrade = l })
}

// WithPanicContainment arms crash containment: a panic inside one
// victim's diagnosis quarantines that victim (its Diagnosis keeps the
// Victim, no causes) and a panic inside a stage surfaces as an error with
// the partial report, instead of killing the process. Off by default —
// batch tools prefer a loud crash with a full stack.
func WithPanicContainment() Option {
	return optionFunc(func(o *Options) { o.ContainPanics = true })
}

// resolve folds an Option list into the canonical Options, applying them
// in order (later options win).
func resolve(opts []Option) Options {
	var o Options
	for _, opt := range opts {
		opt.apply(&o)
	}
	return o
}

// coreConfig lowers the resolved options to the diagnosis-engine
// configuration through their spec form — the one field-by-field
// conversion (internal/spec). The spec is not Resolved first: zero values
// reach the engine as zero and take the engine's own defaults there.
func (o *Options) coreConfig() core.Config {
	return SpecFromOptions(*o).CoreConfig(o.Metrics)
}

// pipelineConfig lowers the resolved options to the staged-pipeline
// configuration, the same way coreConfig does.
func (o *Options) pipelineConfig() pipeline.Config {
	return SpecFromOptions(*o).PipelineConfig(o.Metrics)
}

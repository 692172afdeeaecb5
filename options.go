package microscope

import (
	"microscope/internal/core"
	"microscope/internal/obs"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/spec"
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
// tracer. Create one with NewRegistry, attach it with WithObserver, and
// serve or dump it via its WritePrometheus / WriteJSON methods. All
// methods on a nil *Registry are no-ops, so "observability disabled"
// costs a nil check per event.
type Registry = obs.Registry

// Span is one recorded timing span: pipeline runs and stages, per-victim
// diagnoses. Parent is -1 for roots.
type Span = obs.Span

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.New() }

// Option configures a diagnosis entry point (Diagnose, DiagnoseStore,
// DiagnoseOne, Explain, Victims and their Context variants): WithSpec sets
// the knobs, WithObserver attaches a registry. Options apply in order,
// later ones winning; with none every knob takes its documented default.
type Option func(*config)

// config is what an Option list resolves to: the spec sections the batch
// entry points read (stages and diagnosis) plus the runtime registry no
// data document can express.
type config struct {
	spec spec.PipelineSpec
	reg  *Registry
}

// WithObserver attaches a metrics registry: stage latencies, victim
// counts, memo effectiveness, and spans land in reg. Attaching a registry
// never changes diagnosis output.
func WithObserver(reg *Registry) Option {
	return func(c *config) { c.reg = reg }
}

// coreConfig lowers c to the diagnosis-engine configuration DiagnoseOne,
// Explain and Victims run with.
func (c *config) coreConfig() core.Config { return c.spec.CoreConfig(c.reg) }

// pipelineConfig lowers c to the staged-pipeline configuration Diagnose
// and DiagnoseStore run with.
func (c *config) pipelineConfig() pipeline.Config { return c.spec.PipelineConfig(c.reg) }

// resolve applies an Option list in order to an empty config. The spec is
// not Resolved: zero knobs reach the engine as zero and take the engine's
// own defaults there.
func resolve(opts []Option) config {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

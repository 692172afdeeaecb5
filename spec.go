package microscope

import (
	"microscope/internal/spec"
)

// PipelineSpec is the declarative, versioned configuration of one
// self-contained diagnosis pipeline: stage selection, engine knobs,
// streaming geometry, resilience, topology, and remediation hooks as
// JSON-serializable data. It is the library's one configuration form —
// every CLI flag set is expressible as a spec (`msdiag -dump-spec`), the
// serving tier (msserve) accepts nothing else, and WithSpec configures the
// batch entry points from one. See the internal/spec
// package for the schema.
type PipelineSpec = spec.PipelineSpec

// ParseSpec strictly decodes and validates a JSON pipeline spec. Unknown
// fields and out-of-range knobs are rejected with field-path errors.
func ParseSpec(data []byte) (*PipelineSpec, error) { return spec.Parse(data) }

// WithSpec configures an entry point from a declarative spec: the spec's
// stages and diagnosis sections replace everything the options before it
// set, except an attached metrics registry (WithObserver) — a registry is
// a runtime handle no data document can express. Stream, resilience,
// topology, and hook sections are outside the batch entry points'
// vocabulary and are ignored here; the monitor and serving tiers consume
// them.
func WithSpec(s *PipelineSpec) Option {
	return func(c *config) {
		c.spec.Stages = s.Stages
		c.spec.Diagnosis = s.Diagnosis
	}
}

// Conversions from the declarative spec to the runtime config structs of
// each layer. The spec is the single source; every converter reads the
// same resolved document, so the batch pipeline, the online monitor, and
// the serving tier can never disagree about what a deployment asked for.
package spec

import (
	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/obs"
	"microscope/internal/online"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
)

// Rung returns the degradation ceiling the stages section selects.
// Invalid spellings (impossible on a validated spec) fall back to Full.
func (s *PipelineSpec) Rung() resilience.Level {
	l, _ := ParseRung(s.Stages.Run)
	return l
}

// CoreConfig converts the diagnosis section to the engine config. Every
// spec runs the §4.3 recursion to the engine's default depth.
func (s *PipelineSpec) CoreConfig(reg *obs.Registry) core.Config {
	d := s.Diagnosis
	return core.Config{
		VictimPercentile:        d.VictimPercentile,
		MaxRecursionDepth:       core.DefaultMaxRecursionDepth,
		MaxVictims:              d.MaxVictims,
		LossVictimsWhenDegraded: d.LossVictimsWhenDegraded,
		QueueThreshold:          d.QueueThreshold,
		Workers:                 d.Workers,
		ContainPanics:           s.Stages.ContainPanics,
		Obs:                     reg,
	}
}

// PipelineConfig converts the spec to the staged-pipeline config.
func (s *PipelineSpec) PipelineConfig(reg *obs.Registry) pipeline.Config {
	return pipeline.Config{
		Diagnosis: s.CoreConfig(reg),
		Patterns:  patterns.Config{Threshold: s.Diagnosis.PatternThreshold, Workers: s.Diagnosis.Workers, Obs: reg},
		Degrade:   s.Rung(),
		Obs:       reg,
	}
}

// RetryPolicy converts the retry section (nil = defaults): the backoff the
// serving tier applies to remediation-hook deliveries.
func (s *PipelineSpec) RetryPolicy() resilience.RetryPolicy {
	r := s.Resilience.Retry
	if r == nil {
		return resilience.RetryPolicy{}
	}
	return resilience.RetryPolicy{
		MaxAttempts: r.MaxAttempts,
		Base:        r.Base.Std(),
		Max:         r.Max.Std(),
		Jitter:      r.Jitter,
		Seed:        r.Seed,
	}
}

// ResilienceConfig converts the resilience section to the overload
// defenses: the ladder derives from the capacity and the soft heap
// watermark is half the hard one. Panic containment follows the stages
// section — one knob, not two.
func (s *PipelineSpec) ResilienceConfig() resilience.Config {
	r := s.Resilience
	policy, _ := resilience.ParseShedPolicy(r.ShedPolicy)
	return resilience.Config{
		RingCapacity:   r.RingCapacity,
		Policy:         policy,
		Ladder:         resilience.AutoLadder(r.RingCapacity),
		WindowDeadline: r.WindowDeadline.Std(),
		MemSoftBytes:   r.MaxMemBytes / 2,
		MemHardBytes:   r.MaxMemBytes,
		ContainPanics:  s.Stages.ContainPanics,
	}
}

// MonitorConfig converts the spec to the online monitor's config. The
// stream section's slide is the monitor's flush cadence (its Window
// field), and the hold-off and plausibility horizon are counted in it.
func (s *PipelineSpec) MonitorConfig(reg *obs.Registry) online.Config {
	slide := s.Stream.Slide.Sim()
	return online.Config{
		Window:       slide,
		Overlap:      s.Stream.Overlap.Sim(),
		MaxLookahead: online.DefaultLookaheadWindows * slide,
		ResyncAfter:  online.DefaultResyncAfter,
		MinScore:     s.Stream.MinScore,
		Diagnosis:    s.CoreConfig(reg),
		HoldOff:      slide,
		Obs:          reg,
		Resilience:   s.ResilienceConfig(),
		Degrade:      s.Rung(),
	}
}

// Meta returns a copy of the topology section with the receive batch
// limit defaulted, or false when the spec carries none.
func (s *PipelineSpec) Meta() (collector.Meta, bool) {
	if s.Topology == nil {
		return collector.Meta{}, false
	}
	m := s.Topology.Clone()
	if m.MaxBatch == 0 {
		m.MaxBatch = 32
	}
	return m, true
}

// FromMeta returns a copy of a deployment description to use as a spec's
// topology section (mslive and the benchmark give their tenants a
// simulated trace's meta).
func FromMeta(m collector.Meta) *collector.Meta {
	m = m.Clone()
	return &m
}

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
	"microscope/internal/simtime"
)

// Rung returns the degradation ceiling the stages section selects.
// Invalid spellings (impossible on a validated spec) fall back to Full.
func (s *PipelineSpec) Rung() resilience.Level {
	l, _ := ParseRung(s.Stages.Run)
	return l
}

// CoreConfig converts the diagnosis section to the engine config.
func (s *PipelineSpec) CoreConfig(reg *obs.Registry) core.Config {
	d := s.Diagnosis
	return core.Config{
		VictimPercentile:        d.VictimPercentile,
		MaxRecursionDepth:       d.MaxRecursionDepth,
		MaxVictims:              d.MaxVictims,
		SkipLossVictims:         d.SkipLossVictims,
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
// defenses. Panic containment follows the stages section — one knob, not
// two.
func (s *PipelineSpec) ResilienceConfig() resilience.Config {
	r := s.Resilience
	policy, _ := resilience.ParseShedPolicy(r.ShedPolicy)
	cfg := resilience.Config{
		RingCapacity:   r.RingCapacity,
		Policy:         policy,
		WindowDeadline: r.WindowDeadline.Std(),
		MemSoftBytes:   r.SoftMemBytes,
		MemHardBytes:   r.MaxMemBytes,
		ContainPanics:  s.Stages.ContainPanics,
	}
	switch {
	case r.Ladder != nil:
		cfg.Ladder = resilience.LadderConfig{
			SoftRecords: r.Ladder.SoftRecords,
			HardRecords: r.Ladder.HardRecords,
			MaxRecords:  r.Ladder.MaxRecords,
			SoftBacklog: r.Ladder.SoftBacklog,
			HardBacklog: r.Ladder.HardBacklog,
		}
	case r.RingCapacity > 0:
		cfg.Ladder = resilience.AutoLadder(r.RingCapacity)
	}
	return cfg
}

// MonitorConfig converts the spec to the online monitor's config. The
// stream section's slide is the monitor's flush cadence (its Window
// field); the spec's window = slide + overlap is the analysis span.
func (s *PipelineSpec) MonitorConfig(reg *obs.Registry) online.Config {
	st := s.Stream
	return online.Config{
		Window:       st.Slide.Sim(),
		Overlap:      st.Overlap.Sim(),
		MaxLookahead: st.MaxLookahead.Sim(),
		ResyncAfter:  st.ResyncAfter,
		MinScore:     st.MinScore,
		Diagnosis:    s.CoreConfig(reg),
		HoldOff:      st.HoldOff.Sim(),
		Obs:          reg,
		Resilience:   s.ResilienceConfig(),
	}
}

// Meta converts the topology section to the collector's deployment
// description, or false when the spec carries none.
func (s *PipelineSpec) Meta() (collector.Meta, bool) {
	if s.Topology == nil {
		return collector.Meta{}, false
	}
	t := s.Topology
	m := collector.Meta{MaxBatch: t.MaxBatch}
	if m.MaxBatch == 0 {
		m.MaxBatch = 32
	}
	for _, c := range t.Components {
		m.Components = append(m.Components, collector.ComponentMeta{
			Name:     c.Name,
			Kind:     c.Kind,
			PeakRate: simtime.Rate(c.PeakRate),
			Egress:   c.Egress,
		})
	}
	for _, e := range t.Edges {
		m.Edges = append(m.Edges, collector.Edge{From: e.From, To: e.To})
	}
	return m, true
}

// FromMeta builds a topology section from a collector deployment
// description (msdiag -dump-spec reads the trace's meta back into spec
// form).
func FromMeta(m collector.Meta) *TopologySpec {
	t := &TopologySpec{MaxBatch: m.MaxBatch}
	for _, c := range m.Components {
		t.Components = append(t.Components, ComponentSpec{
			Name:     c.Name,
			Kind:     c.Kind,
			PeakRate: float64(c.PeakRate),
			Egress:   c.Egress,
		})
	}
	for _, e := range m.Edges {
		t.Edges = append(t.Edges, EdgeSpec{From: e.From, To: e.To})
	}
	return t
}

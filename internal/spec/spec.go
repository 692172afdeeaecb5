// Package spec is the declarative configuration plane: a versioned,
// JSON-serializable PipelineSpec that describes one self-contained
// diagnosis pipeline — stage selection, engine knobs, streaming geometry,
// overload resilience, deployment topology, and remediation hooks — as
// data rather than flags or code.
//
// The spec is the library's one configuration form. Every flag
// combination of the CLIs is expressible (and reproducible) as a spec
// (`msdiag -dump-spec`), the serving tier (msserve) accepts nothing else,
// and the facade's functional options edit a spec that its entry points
// lower through the same converters (convert.go) every other caller uses.
//
// Parsing is strict: unknown fields, malformed durations, out-of-range
// knobs, and inconsistent window geometry are rejected with field-path
// errors ("stream.window: ..."), never silently defaulted. Defaulting is
// a separate, explicit step (Resolved) so a stored spec always states the
// configuration it runs with.
package spec

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"

	"microscope/internal/core"
	"microscope/internal/online"
	"microscope/internal/patterns"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
)

// Version is the current spec schema version. Parse accepts only this
// version (or 0, which means "current" and is resolved to it).
const Version = 1

// Duration is a JSON-friendly duration: it marshals as a Go duration
// string ("100ms") and unmarshals from either a string or a bare number
// of nanoseconds.
type Duration int64

// D converts a time.Duration.
func D(d time.Duration) Duration { return Duration(d) }

// Std returns the duration as time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Sim returns the duration on the simulated-time axis.
func (d Duration) Sim() simtime.Duration { return simtime.Duration(d) }

// String implements fmt.Stringer.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as a string ("120ms").
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "100ms"-style strings or bare nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q", s)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("duration must be a string like \"100ms\" or nanoseconds")
	}
	*d = Duration(n)
	return nil
}

// PipelineSpec describes one self-contained diagnosis pipeline. The zero
// value (plus Version) is a valid spec meaning "all defaults"; Resolved
// makes every default explicit.
type PipelineSpec struct {
	// Version is the schema version (0 = current).
	Version int `json:"version"`
	// Tenant optionally names the deployment the spec configures; the
	// serving tier uses it as the tenant ID when the create request
	// doesn't carry one.
	Tenant string `json:"tenant,omitempty"`
	// Stages selects how much of the pipeline runs.
	Stages StagesSpec `json:"stages"`
	// Diagnosis tunes the §4 engine.
	Diagnosis DiagnosisSpec `json:"diagnosis"`
	// Stream sets the sliding-window geometry and alerting of the online
	// monitor. Ignored by pure batch runs.
	Stream StreamSpec `json:"stream"`
	// Resilience arms the overload defenses (PR-6 ladder and bounds).
	Resilience ResilienceSpec `json:"resilience"`
	// Topology describes the NF graph and peak rates. Required by the
	// serving tier (reconstruction needs it before the first record);
	// batch CLIs read it from the trace instead.
	Topology *TopologySpec `json:"topology,omitempty"`
	// Hooks lists remediation hooks fired on ranked-culprit changes.
	Hooks []HookSpec `json:"hooks,omitempty"`
}

// StagesSpec selects the pipeline stages, mirroring the degradation
// ladder's rungs.
type StagesSpec struct {
	// Run is the rung the pipeline executes at: "full", "no-patterns",
	// "victims-only", or "skipped" (default "full"). Overload may degrade
	// a window further at runtime; Run is the ceiling.
	Run string `json:"run,omitempty"`
	// ContainPanics quarantines panicking victims/stages instead of
	// crashing; the serving tier forces it on.
	ContainPanics bool `json:"contain_panics,omitempty"`
}

// DiagnosisSpec tunes the diagnosis engine (§4).
type DiagnosisSpec struct {
	// VictimPercentile selects latency victims (default 99).
	VictimPercentile float64 `json:"victim_percentile,omitempty"`
	// MaxRecursionDepth caps the §4.3 recursion (default 5).
	MaxRecursionDepth int `json:"max_recursion_depth,omitempty"`
	// MaxVictims caps diagnosed victims per run/window (0 = all in a batch
	// run, the online monitor's default of 200 per window).
	MaxVictims int `json:"max_victims,omitempty"`
	// PatternThreshold is the §4.4 significance fraction (default 0.01).
	PatternThreshold float64 `json:"pattern_threshold,omitempty"`
	// QueueThreshold enables the §7 non-empty-queue extension.
	QueueThreshold int `json:"queue_threshold,omitempty"`
	// SkipLossVictims disables loss diagnosis.
	SkipLossVictims bool `json:"skip_loss_victims,omitempty"`
	// LossVictimsWhenDegraded keeps loss diagnosis on degraded traces.
	LossVictimsWhenDegraded bool `json:"loss_victims_when_degraded,omitempty"`
	// Workers bounds the parallel fan-out (0 = GOMAXPROCS). Output is
	// byte-identical for every value.
	Workers int `json:"workers,omitempty"`
}

// StreamSpec is the sliding-window geometry: slide is the flush cadence,
// overlap the carried tail, window the total analysis span
// (window = slide + overlap). Any two determine the third; specifying all
// three inconsistently is an error.
type StreamSpec struct {
	// Window is the total analysis span per flush (default 120ms).
	Window Duration `json:"window,omitempty"`
	// Slide is the flush cadence (default 100ms).
	Slide Duration `json:"slide,omitempty"`
	// Overlap is the carried tail (default 20ms).
	Overlap Duration `json:"overlap,omitempty"`
	// MinScore is the alert threshold in packets (default 100).
	MinScore float64 `json:"min_score,omitempty"`
	// HoldOff suppresses repeat alerts for the same culprit within this
	// span (default one slide).
	HoldOff Duration `json:"hold_off,omitempty"`
	// MaxLookahead bounds plausible timestamps beyond the watermark
	// (default 4096 slides; negative disables).
	MaxLookahead Duration `json:"max_lookahead,omitempty"`
	// ResyncAfter is the watermark-jump recovery run length (default 8;
	// negative disables).
	ResyncAfter int `json:"resync_after,omitempty"`
}

// ResilienceSpec arms the overload defenses.
type ResilienceSpec struct {
	// RingCapacity bounds the ingest ring in records (0 = unbounded).
	RingCapacity int `json:"ring_capacity,omitempty"`
	// ShedPolicy selects what a full ring sheds: "drop-oldest" (default)
	// or "reject-new".
	ShedPolicy string `json:"shed_policy,omitempty"`
	// WindowDeadline is the wall-clock budget per window (0 = none).
	WindowDeadline Duration `json:"window_deadline,omitempty"`
	// MaxMemBytes is the hard heap watermark (0 = off). The serving tier
	// also treats it as the tenant's memory budget.
	MaxMemBytes int64 `json:"max_mem_bytes,omitempty"`
	// SoftMemBytes is the soft watermark (default MaxMemBytes/2).
	SoftMemBytes int64 `json:"soft_mem_bytes,omitempty"`
	// Ladder overrides the degradation thresholds; nil derives
	// AutoLadder(ring_capacity).
	Ladder *LadderSpec `json:"ladder,omitempty"`
	// Retry shapes the backoff for retrying a remediation hook's
	// transiently failed deliveries (the serving tier's hook runner).
	Retry *RetrySpec `json:"retry,omitempty"`
}

// LadderSpec sets the deterministic degradation thresholds.
type LadderSpec struct {
	SoftRecords int `json:"soft_records,omitempty"`
	HardRecords int `json:"hard_records,omitempty"`
	MaxRecords  int `json:"max_records,omitempty"`
	SoftBacklog int `json:"soft_backlog,omitempty"`
	HardBacklog int `json:"hard_backlog,omitempty"`
}

// RetrySpec shapes a capped exponential backoff.
type RetrySpec struct {
	MaxAttempts int      `json:"max_attempts,omitempty"`
	Base        Duration `json:"base,omitempty"`
	Max         Duration `json:"max,omitempty"`
	Jitter      float64  `json:"jitter,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
}

// TopologySpec describes the NF deployment: the component graph and
// offline-measured peak rates (§4.1).
type TopologySpec struct {
	Components []ComponentSpec `json:"components"`
	Edges      []EdgeSpec      `json:"edges,omitempty"`
	// MaxBatch is the receive batch limit (default 32).
	MaxBatch int `json:"max_batch,omitempty"`
}

// ComponentSpec is one NF (or the traffic source).
type ComponentSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind,omitempty"`
	// PeakRate is r_i in packets/second (0 for the source).
	PeakRate float64 `json:"peak_rate,omitempty"`
	Egress   bool    `json:"egress,omitempty"`
}

// EdgeSpec is a directed traffic link.
type EdgeSpec struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// HookSpec is one remediation hook: when a window's ranked culprit set
// changes, the serving tier fires every matching hook.
type HookSpec struct {
	// Name identifies the hook in logs and metrics; unique per spec.
	Name string `json:"name"`
	// Type is "webhook" (POST the alert JSON to URL) or "exec" (run
	// Command with the alert JSON on stdin).
	Type string `json:"type"`
	// URL is the webhook target (webhook hooks only).
	URL string `json:"url,omitempty"`
	// Command is the argv to execute (exec hooks only).
	Command []string `json:"command,omitempty"`
	// MinScore gates the hook: only culprits at or above it fire
	// (0 = the stream's alert threshold already applied).
	MinScore float64 `json:"min_score,omitempty"`
	// Timeout bounds one delivery attempt (default 5s).
	Timeout Duration `json:"timeout,omitempty"`
	// MaxFailures opens the per-hook circuit breaker after this many
	// consecutive failed deliveries (default 5).
	MaxFailures int `json:"max_failures,omitempty"`
	// Cooldown is how long the breaker stays open (default 30s).
	Cooldown Duration `json:"cooldown,omitempty"`
}

// Rung spellings, shared with the CLI flags and the resilience ladder.
const (
	RungFull        = "full"
	RungNoPatterns  = "no-patterns"
	RungVictimsOnly = "victims-only"
	RungSkipped     = "skipped"
)

// ParseRung converts a rung spelling to a degradation level.
func ParseRung(s string) (resilience.Level, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", RungFull:
		return resilience.Full, nil
	case RungNoPatterns, "no_patterns", "nopatterns":
		return resilience.NoPatterns, nil
	case RungVictimsOnly, "victims_only", "victims":
		return resilience.VictimsOnly, nil
	case RungSkipped, "skip":
		return resilience.Skipped, nil
	default:
		return resilience.Full, fmt.Errorf("unknown rung %q (want full, no-patterns, victims-only, or skipped)", s)
	}
}

// RungString renders a degradation level in its canonical spec spelling.
func RungString(l resilience.Level) string {
	switch l {
	case resilience.NoPatterns:
		return RungNoPatterns
	case resilience.VictimsOnly:
		return RungVictimsOnly
	case resilience.Skipped:
		return RungSkipped
	default:
		return RungFull
	}
}

// Parse decodes and validates a spec. Unknown fields are rejected — a
// typo'd knob must fail loudly, not silently run with defaults.
func Parse(data []byte) (*PipelineSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s PipelineSpec
	if err := dec.Decode(&s); err != nil {
		// encoding/json names an unknown key but not where it sits; a
		// second, untyped decode finds its path ("stream.incremental").
		var doc any
		if strings.HasPrefix(err.Error(), "json: unknown field") && json.Unmarshal(data, &doc) == nil {
			if path := unknownField(doc, reflect.TypeOf(s), ""); path != "" {
				return nil, fmt.Errorf("spec: %s: %w", path, err)
			}
		}
		return nil, fmt.Errorf("spec: %w", err)
	}
	// A trailing second document is as wrong as an unknown field.
	if dec.More() {
		return nil, errors.New("spec: trailing data after spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// unknownField returns the JSON path of the first key in doc (in sorted
// key order) that type t has no field for, or "" when every key is known.
// Keys match json names case-insensitively, as encoding/json does.
func unknownField(doc any, t reflect.Type, path string) string {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	switch v := doc.(type) {
	case []any:
		for i, e := range v {
			if p := unknownField(e, t, fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case map[string]any:
		if t.Kind() != reflect.Struct {
			return ""
		}
		fields := reflect.VisibleFields(t)
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := strings.TrimPrefix(path+"."+k, ".")
			i := slices.IndexFunc(fields, func(f reflect.StructField) bool {
				tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				return strings.EqualFold(cmp.Or(tag, f.Name), k)
			})
			if i < 0 {
				return p
			}
			if q := unknownField(v[k], fields[i].Type, p); q != "" {
				return q
			}
		}
	}
	return ""
}

// Load reads and parses a spec file.
func Load(path string) (*PipelineSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Encode renders the spec as canonical indented JSON. Two specs are
// equivalent exactly when their resolved encodings are byte-equal.
func (s *PipelineSpec) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Clone deep-copies the spec.
func (s *PipelineSpec) Clone() *PipelineSpec {
	c := *s
	if s.Resilience.Ladder != nil {
		l := *s.Resilience.Ladder
		c.Resilience.Ladder = &l
	}
	if s.Resilience.Retry != nil {
		r := *s.Resilience.Retry
		c.Resilience.Retry = &r
	}
	if s.Topology != nil {
		t := TopologySpec{
			Components: append([]ComponentSpec(nil), s.Topology.Components...),
			Edges:      append([]EdgeSpec(nil), s.Topology.Edges...),
			MaxBatch:   s.Topology.MaxBatch,
		}
		c.Topology = &t
	}
	if s.Hooks != nil {
		c.Hooks = make([]HookSpec, len(s.Hooks))
		for i, h := range s.Hooks {
			h.Command = append([]string(nil), h.Command...)
			c.Hooks[i] = h
		}
	}
	return &c
}

// fieldError records one validation failure at a JSON field path.
type fieldError struct {
	path string
	msg  string
}

func (e fieldError) Error() string { return e.path + ": " + e.msg }

// errs collects field-path validation failures.
type errs []error

func (v *errs) addf(path, format string, args ...any) {
	*v = append(*v, fieldError{path: path, msg: fmt.Sprintf(format, args...)})
}

// Validate checks every field, returning all failures joined (each line
// prefixed with its JSON field path) or nil.
func (s *PipelineSpec) Validate() error {
	var v errs
	if s.Version != 0 && s.Version != Version {
		v.addf("version", "unsupported version %d (this build speaks %d)", s.Version, Version)
	}
	if _, err := ParseRung(s.Stages.Run); err != nil {
		v.addf("stages.run", "%v", err)
	}

	d := &s.Diagnosis
	if d.VictimPercentile < 0 || d.VictimPercentile >= 100 {
		v.addf("diagnosis.victim_percentile", "must be in [0,100), got %g", d.VictimPercentile)
	}
	if d.MaxRecursionDepth < 0 {
		v.addf("diagnosis.max_recursion_depth", "must be >= 0, got %d", d.MaxRecursionDepth)
	}
	if d.MaxVictims < 0 {
		v.addf("diagnosis.max_victims", "must be >= 0, got %d", d.MaxVictims)
	}
	if d.PatternThreshold < 0 || d.PatternThreshold > 1 {
		v.addf("diagnosis.pattern_threshold", "must be in [0,1], got %g", d.PatternThreshold)
	}
	if d.QueueThreshold < 0 {
		v.addf("diagnosis.queue_threshold", "must be >= 0, got %d", d.QueueThreshold)
	}
	if d.Workers < 0 {
		v.addf("diagnosis.workers", "must be >= 0, got %d", d.Workers)
	}

	st := &s.Stream
	if st.Window < 0 {
		v.addf("stream.window", "must be >= 0, got %v", st.Window)
	}
	if st.Slide < 0 {
		v.addf("stream.slide", "must be >= 0, got %v", st.Slide)
	}
	if st.Overlap < 0 {
		v.addf("stream.overlap", "must be >= 0, got %v", st.Overlap)
	}
	if st.Window > 0 && st.Slide > 0 && st.Overlap > 0 && st.Window != st.Slide+st.Overlap {
		v.addf("stream.window", "inconsistent geometry: window (%v) != slide (%v) + overlap (%v)",
			st.Window, st.Slide, st.Overlap)
	}
	if st.Window > 0 && st.Slide > 0 && st.Overlap == 0 && st.Window < st.Slide {
		v.addf("stream.window", "window (%v) must be >= slide (%v)", st.Window, st.Slide)
	}
	if st.Window > 0 && st.Slide == 0 && st.Overlap > 0 && st.Overlap >= st.Window {
		v.addf("stream.overlap", "overlap (%v) must be < window (%v)", st.Overlap, st.Window)
	}
	if st.MinScore < 0 {
		v.addf("stream.min_score", "must be >= 0, got %g", st.MinScore)
	}
	if st.HoldOff < 0 {
		v.addf("stream.hold_off", "must be >= 0, got %v", st.HoldOff)
	}

	r := &s.Resilience
	if r.RingCapacity < 0 {
		v.addf("resilience.ring_capacity", "must be >= 0, got %d", r.RingCapacity)
	}
	if _, err := resilience.ParseShedPolicy(r.ShedPolicy); err != nil {
		v.addf("resilience.shed_policy", "%v", err)
	}
	if r.WindowDeadline < 0 {
		v.addf("resilience.window_deadline", "must be >= 0, got %v", r.WindowDeadline)
	}
	if r.MaxMemBytes < 0 {
		v.addf("resilience.max_mem_bytes", "must be >= 0, got %d", r.MaxMemBytes)
	}
	if r.SoftMemBytes < 0 {
		v.addf("resilience.soft_mem_bytes", "must be >= 0, got %d", r.SoftMemBytes)
	}
	if r.MaxMemBytes > 0 && r.SoftMemBytes > r.MaxMemBytes {
		v.addf("resilience.soft_mem_bytes", "soft watermark (%d) exceeds max_mem_bytes (%d)",
			r.SoftMemBytes, r.MaxMemBytes)
	}
	if r.Ladder != nil {
		l := r.Ladder
		for _, f := range []struct {
			path string
			val  int
		}{
			{"resilience.ladder.soft_records", l.SoftRecords},
			{"resilience.ladder.hard_records", l.HardRecords},
			{"resilience.ladder.max_records", l.MaxRecords},
			{"resilience.ladder.soft_backlog", l.SoftBacklog},
			{"resilience.ladder.hard_backlog", l.HardBacklog},
		} {
			if f.val < 0 {
				v.addf(f.path, "must be >= 0, got %d", f.val)
			}
		}
	}
	if r.Retry != nil {
		if r.Retry.MaxAttempts < 0 {
			v.addf("resilience.retry.max_attempts", "must be >= 0, got %d", r.Retry.MaxAttempts)
		}
		if r.Retry.Base < 0 {
			v.addf("resilience.retry.base", "must be >= 0, got %v", r.Retry.Base)
		}
		if r.Retry.Max < 0 {
			v.addf("resilience.retry.max", "must be >= 0, got %v", r.Retry.Max)
		}
		if r.Retry.Jitter < 0 || r.Retry.Jitter > 1 {
			v.addf("resilience.retry.jitter", "must be in [0,1], got %g", r.Retry.Jitter)
		}
	}

	if s.Topology != nil {
		t := s.Topology
		if len(t.Components) == 0 {
			v.addf("topology.components", "must list at least one component")
		}
		names := make(map[string]bool, len(t.Components))
		for i, c := range t.Components {
			path := fmt.Sprintf("topology.components[%d]", i)
			if c.Name == "" {
				v.addf(path+".name", "must not be empty")
			} else if names[c.Name] {
				v.addf(path+".name", "duplicate component %q", c.Name)
			}
			names[c.Name] = true
			if c.PeakRate < 0 {
				v.addf(path+".peak_rate", "must be >= 0, got %g", c.PeakRate)
			}
		}
		for i, e := range t.Edges {
			path := fmt.Sprintf("topology.edges[%d]", i)
			if !names[e.From] {
				v.addf(path+".from", "unknown component %q", e.From)
			}
			if !names[e.To] {
				v.addf(path+".to", "unknown component %q", e.To)
			}
		}
		if t.MaxBatch < 0 {
			v.addf("topology.max_batch", "must be >= 0, got %d", t.MaxBatch)
		}
	}

	hookNames := make(map[string]bool, len(s.Hooks))
	for i, h := range s.Hooks {
		path := fmt.Sprintf("hooks[%d]", i)
		if h.Name == "" {
			v.addf(path+".name", "must not be empty")
		} else if hookNames[h.Name] {
			v.addf(path+".name", "duplicate hook %q", h.Name)
		}
		hookNames[h.Name] = true
		switch h.Type {
		case "webhook":
			if h.URL == "" {
				v.addf(path+".url", "webhook hook needs a url")
			}
			if len(h.Command) > 0 {
				v.addf(path+".command", "webhook hook must not set command")
			}
		case "exec":
			if len(h.Command) == 0 {
				v.addf(path+".command", "exec hook needs a command")
			}
			if h.URL != "" {
				v.addf(path+".url", "exec hook must not set url")
			}
		default:
			v.addf(path+".type", "unknown hook type %q (want webhook or exec)", h.Type)
		}
		if h.MinScore < 0 {
			v.addf(path+".min_score", "must be >= 0, got %g", h.MinScore)
		}
		if h.Timeout < 0 {
			v.addf(path+".timeout", "must be >= 0, got %v", h.Timeout)
		}
		if h.MaxFailures < 0 {
			v.addf(path+".max_failures", "must be >= 0, got %d", h.MaxFailures)
		}
		if h.Cooldown < 0 {
			v.addf(path+".cooldown", "must be >= 0, got %v", h.Cooldown)
		}
	}

	if len(v) == 0 {
		return nil
	}
	sort.SliceStable(v, func(i, j int) bool { return v[i].Error() < v[j].Error() })
	return fmt.Errorf("spec: %w", errors.Join(v...))
}

// Default hook delivery knobs, read by the serving tier's hook runner.
const (
	DefaultHookTimeout     = 5 * time.Second
	DefaultHookMaxFailures = 5
	DefaultHookCooldown    = 30 * time.Second
)

// Resolved returns a copy with every default made explicit, so the spec
// document states the exact configuration a run uses. The defaults are
// the ones the consuming packages (core, patterns, online) apply to a
// zero knob. Resolved is idempotent.
func (s *PipelineSpec) Resolved() *PipelineSpec {
	r := s.Clone()
	if r.Version == 0 {
		r.Version = Version
	}
	if r.Stages.Run == "" {
		r.Stages.Run = RungFull
	} else if rung, err := ParseRung(r.Stages.Run); err == nil {
		r.Stages.Run = RungString(rung) // canonical spelling
	}

	d := &r.Diagnosis
	if d.VictimPercentile == 0 {
		d.VictimPercentile = core.DefaultVictimPercentile
	}
	if d.MaxRecursionDepth == 0 {
		d.MaxRecursionDepth = core.DefaultMaxRecursionDepth
	}
	if d.PatternThreshold == 0 {
		d.PatternThreshold = patterns.DefaultThreshold
	}

	st := &r.Stream
	// Any two of window/slide/overlap determine the third; absent all
	// three, the monitor defaults apply.
	slide, overlap := Duration(online.DefaultWindow), Duration(online.DefaultOverlap)
	switch {
	case st.Slide > 0 && st.Overlap > 0:
		// window derived (or validated consistent already).
	case st.Window > 0 && st.Slide > 0:
		st.Overlap = st.Window - st.Slide
	case st.Window > 0 && st.Overlap > 0:
		st.Slide = st.Window - st.Overlap
	case st.Slide > 0:
		st.Overlap = overlap
	case st.Overlap > 0:
		st.Slide = slide
	case st.Window > 0:
		// Window alone: keep the default overlap fraction.
		st.Overlap = overlap
		if st.Overlap >= st.Window {
			st.Overlap = st.Window / 5
		}
		st.Slide = st.Window - st.Overlap
	default:
		st.Slide = slide
		st.Overlap = overlap
	}
	st.Window = st.Slide + st.Overlap
	if st.MinScore == 0 {
		st.MinScore = online.DefaultMinScore
	}
	if st.HoldOff == 0 {
		st.HoldOff = st.Slide
	}
	if st.MaxLookahead == 0 {
		st.MaxLookahead = online.DefaultLookaheadWindows * st.Slide
	}
	if st.ResyncAfter == 0 {
		st.ResyncAfter = online.DefaultResyncAfter
	}

	re := &r.Resilience
	if re.ShedPolicy == "" {
		re.ShedPolicy = resilience.ShedDropOldest.String()
	} else if p, err := resilience.ParseShedPolicy(re.ShedPolicy); err == nil {
		re.ShedPolicy = p.String()
	}
	if re.MaxMemBytes > 0 && re.SoftMemBytes == 0 {
		re.SoftMemBytes = re.MaxMemBytes / 2
	}
	if re.Ladder == nil && re.RingCapacity > 0 {
		l := resilience.AutoLadder(re.RingCapacity)
		re.Ladder = &LadderSpec{
			SoftRecords: l.SoftRecords,
			HardRecords: l.HardRecords,
			MaxRecords:  l.MaxRecords,
			SoftBacklog: l.SoftBacklog,
			HardBacklog: l.HardBacklog,
		}
	}

	if r.Topology != nil && r.Topology.MaxBatch == 0 {
		r.Topology.MaxBatch = 32
	}

	for i := range r.Hooks {
		h := &r.Hooks[i]
		if h.Timeout == 0 {
			h.Timeout = Duration(DefaultHookTimeout)
		}
		if h.MaxFailures == 0 {
			h.MaxFailures = DefaultHookMaxFailures
		}
		if h.Cooldown == 0 {
			h.Cooldown = Duration(DefaultHookCooldown)
		}
	}
	return r
}

// Package microscope is a queue-based performance-diagnosis toolkit for
// chains and DAGs of network functions, reproducing "Microscope:
// Queue-based Performance Diagnosis for Network Functions" (SIGCOMM 2020).
//
// The pipeline mirrors the paper end to end:
//
//  1. Deploy NFs (here: the bundled deterministic DPDK-style simulator —
//     batched run-to-completion NFs over bounded rings) with the runtime
//     collector attached. The collector records only what the paper's
//     DPDK instrumentation records: per-batch timestamps, batch sizes,
//     per-packet IPIDs, and five-tuples at graph egress.
//  2. Reconstruct per-packet journeys offline from IPIDs using the paths /
//     timing / ordering side channels (§5).
//  3. Diagnose victim packets via queuing periods: split blame between
//     local slow processing (Sp) and upstream input pressure (Si), trace
//     PreSet timespans across the DAG, and recurse upstream (§4.1–§4.3).
//  4. Aggregate packet-level causal relations into ranked
//     <culprit flows, culprit NFs> → <victim flows, victim NFs> patterns
//     with a two-phase AutoFocus (§4.4).
//
// Quickstart:
//
//	dep := microscope.NewChainDeployment(1,
//		microscope.ChainNF{Name: "fw1", Kind: "fw", Rate: microscope.MPPS(0.5)},
//		microscope.ChainNF{Name: "vpn1", Kind: "vpn", Rate: microscope.MPPS(0.6)},
//	)
//	wl := microscope.NewWorkload(microscope.WorkloadConfig{
//		Rate: microscope.MPPS(0.3), Duration: 10 * microscope.Millisecond,
//	})
//	wl.InjectBurst(microscope.Burst{At: microscope.Time(3 * microscope.Millisecond), Flow: wl.PickFlow(0), Count: 800})
//	dep.Replay(wl)
//	dep.Run(50 * simtime.Millisecond)
//	rep := microscope.Diagnose(dep.Trace())
//	fmt.Print(rep.Render())
//
// Entry points are configured by a declarative PipelineSpec via WithSpec,
// and observed through a registry via WithObserver; see options.go and
// spec.go.
package microscope

import (
	"context"
	"fmt"
	"strings"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/faults"
	"microscope/internal/netmedic"
	"microscope/internal/online"
	"microscope/internal/packet"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// Re-exported aliases so users of the public API can name every type the
// pipeline produces.
type (
	// FiveTuple identifies a flow.
	FiveTuple = packet.FiveTuple
	// Trace is a collected run: metadata plus batch records.
	Trace = collector.Trace
	// Store is the reconstructed trace (journeys, per-NF views).
	Store = tracestore.Store
	// Journey is one reconstructed packet trace.
	Journey = tracestore.Journey
	// Victim is a packet/NF pair selected for diagnosis.
	Victim = core.Victim
	// Diagnosis is the per-victim ranked cause list.
	Diagnosis = core.Diagnosis
	// Cause is one ranked root cause.
	Cause = core.Cause
	// Pattern is one aggregated causal pattern.
	Pattern = patterns.Pattern
	// TraceMeta is the deployment metadata carried by a Trace.
	TraceMeta = collector.Meta
	// Alert is one significant culprit surfaced by the online monitor.
	Alert = online.Alert
	// Monitor consumes collector records incrementally and raises alerts.
	Monitor = online.Monitor
	// Health is a store's trace-quality summary (integrity + matching).
	Health = tracestore.Health
	// Integrity is the known damage carried by a trace.
	Integrity = collector.Integrity
	// FaultConfig selects fault models for InjectFaults.
	FaultConfig = faults.Config
	// FaultStats reports what InjectFaults did.
	FaultStats = faults.Stats
	// FaultSkew models one component's clock offset and drift.
	FaultSkew = faults.Skew
	// Time and Duration are simulated clock types.
	Time = simtime.Time
	// Duration is a simulated time span.
	Duration = simtime.Duration
	// Rate is packets per second.
	Rate = simtime.Rate
)

// Culprit kinds, re-exported.
const (
	CulpritSourceTraffic   = core.CulpritSourceTraffic
	CulpritLocalProcessing = core.CulpritLocalProcessing
)

// Victim kinds, re-exported.
const (
	VictimLatency = core.VictimLatency
	VictimLoss    = core.VictimLoss
)

// Simulated-time units, re-exported so API users never need the internal
// simtime package.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// MPPS constructs a Rate from millions of packets per second.
func MPPS(v float64) Rate { return simtime.MPPS(v) }

// PPS constructs a Rate from packets per second.
func PPS(v float64) Rate { return simtime.PPS(v) }

// IP builds an IPv4 address for FiveTuple fields.
func IP(a, b, c, d byte) uint32 { return packet.IPFromOctets(a, b, c, d) }

// Report is the full diagnosis output for one trace.
type Report struct {
	// Store is the reconstructed trace backing the report.
	Store *Store
	// Diagnoses holds the per-victim ranked causes.
	Diagnoses []Diagnosis
	// Patterns is the ranked aggregated causal-pattern report.
	Patterns []Pattern
	// Health qualifies the report: how damaged the trace was and how
	// reconstruction coped. Degraded health means loss conclusions were
	// suppressed (unless forced) and scores deserve skepticism.
	Health Health
	// Degradation is the degradation-ladder rung the run executed at:
	// DegradeFull unless the spec's stages.run asked for less.
	Degradation DegradationLevel
	// ContainedPanics counts victims quarantined by crash containment
	// (always 0 unless the spec sets stages.contain_panics).
	ContainedPanics int64
	// Spans is the run's span tree: a root "pipeline" span (Parent -1)
	// with one child of Kind "stage" per executed stage, carrying its
	// wall-clock cost. Always populated, with or without a registry
	// attached.
	Spans []Span
}

// Diagnose reconstructs a trace and runs the complete Microscope pipeline.
// It accepts functional options (WithSpec, WithObserver); with no options
// every knob takes its documented default.
func Diagnose(tr *Trace, opts ...Option) *Report {
	//mslint:allow ctxflow non-ctx convenience wrapper; cancellable path is DiagnoseContext
	rep, _ := DiagnoseContext(context.Background(), tr, opts...)
	return rep
}

// DiagnoseContext is Diagnose with cooperative cancellation: a cancelled
// context stops the stage fan-out promptly and returns the partial report
// built so far together with an error wrapping ctx.Err().
func DiagnoseContext(ctx context.Context, tr *Trace, opts ...Option) (*Report, error) {
	c := resolve(opts)
	res, err := pipeline.RunContext(ctx, tr, c.pipelineConfig())
	return reportFrom(res), err
}

// Reconstruct indexes a trace and rebuilds packet journeys (§5).
func Reconstruct(tr *Trace) *Store {
	return tracestore.Build(tr)
}

// DiagnoseStore runs the staged pipeline (index → victims → diagnose →
// patterns) on an already-reconstructed store.
func DiagnoseStore(st *Store, opts ...Option) *Report {
	//mslint:allow ctxflow non-ctx convenience wrapper; cancellable path is DiagnoseStoreContext
	rep, _ := DiagnoseStoreContext(context.Background(), st, opts...)
	return rep
}

// DiagnoseStoreContext is DiagnoseStore with cooperative cancellation; see
// DiagnoseContext for the partial-report contract.
func DiagnoseStoreContext(ctx context.Context, st *Store, opts ...Option) (*Report, error) {
	c := resolve(opts)
	res, err := pipeline.RunStoreContext(ctx, st, c.pipelineConfig())
	return reportFrom(res), err
}

// reportFrom projects a pipeline result onto the public Report.
func reportFrom(res *pipeline.Result) *Report {
	return &Report{
		Store:           res.Store,
		Diagnoses:       res.Diagnoses,
		Patterns:        res.Patterns,
		Health:          res.Health,
		Degradation:     res.Degradation,
		ContainedPanics: res.ContainedPanics,
		Spans:           res.Spans,
	}
}

// InjectFaults applies deterministic fault models (record loss, truncation,
// duplication, reordering, clock skew) to a trace, returning a corrupted
// copy and fault accounting. Use it to measure how diagnosis degrades under
// imperfect telemetry; the input trace is never modified.
func InjectFaults(tr *Trace, cfg FaultConfig) (*Trace, FaultStats) {
	return faults.Inject(tr, cfg)
}

// ParseFaultSpec parses the CLI fault specification (see faults.ParseSpec),
// e.g. "drop=0.05,seed=7,skew=fw2:300us:50".
func ParseFaultSpec(spec string) (FaultConfig, error) {
	return faults.ParseSpec(spec)
}

// TopCauses merges every victim's causes into one ranked list of
// <component, kind> culprits with summed scores — a deployment-wide
// "what is wrong right now" view.
func (r *Report) TopCauses(limit int) []Cause {
	return core.TopCauses(r.Diagnoses, limit)
}

// Render prints a human-readable summary: victim count, top culprits, and
// the leading causal patterns.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Microscope report: %d victims diagnosed, %d causal patterns\n",
		len(r.Diagnoses), len(r.Patterns))
	fmt.Fprintf(&b, "%s\n", r.Health)
	if r.Health.Degraded() {
		b.WriteString("warning: trace is degraded; loss conclusions suppressed, scores approximate\n")
	}
	b.WriteString("\nTop culprits:\n")
	for _, c := range r.TopCauses(8) {
		fmt.Fprintf(&b, "  %-10s %-10s score=%.1f onset=%v\n", c.Comp, c.Kind, c.Score, c.At)
	}
	if len(r.Patterns) > 0 {
		b.WriteString("\nTop causal patterns (culprit => victim):\n")
		limit := len(r.Patterns)
		if limit > 10 {
			limit = 10
		}
		for _, p := range r.Patterns[:limit] {
			fmt.Fprintf(&b, "  %s\n", p.String())
		}
	}
	return b.String()
}

// NetMedicRank runs the NetMedic baseline over the same victims and
// returns, per victim, the ranked component list — for side-by-side
// comparisons like the paper's Figure 11. st is the store reconstructed
// from tr; the baseline counts its rates from tr's records.
func NetMedicRank(tr *Trace, st *Store, victims []Victim, window Duration) []netmedic.Result {
	nm := netmedic.New(tr, st, netmedic.Config{Window: window})
	return nm.Diagnose(victims)
}

// DiagnoseOne diagnoses a single chosen victim — e.g. a specific packet an
// operator cares about — without global victim selection.
func DiagnoseOne(st *Store, v Victim, opts ...Option) Diagnosis {
	c := resolve(opts)
	return core.NewEngine(c.coreConfig()).DiagnoseVictim(st, v)
}

// Explanation re-exports the causal-tree explanation of one diagnosis.
type Explanation = core.Explanation

// Explain diagnoses one victim and records the walk as a readable
// recursion tree (the Figure 7 decomposition): every queuing period the
// diagnosis analyses, its Si/Sp split, and the timespan attribution of
// each upstream share.
func Explain(st *Store, v Victim, opts ...Option) *Explanation {
	c := resolve(opts)
	return core.NewEngine(c.coreConfig()).Explain(st, v)
}

// AlignClocks estimates per-component clock offsets from a trace collected
// across unsynchronized machines (§7) and returns the offsets plus a
// corrected trace ready for Reconstruct.
func AlignClocks(tr *Trace) (map[string]Duration, *Trace) {
	return tracestore.AlignClocks(tr)
}

// NewMonitor creates an online monitor: feed it collector records in time
// order (Monitor.Feed) and it diagnoses sliding windows over one retained
// stream — each record sealed once, expired segments evicted, the
// diagnosis memo carried — raising alerts for significant culprits:
// continuous Microscope. The monitor runs s's diagnosis, stream and
// resilience sections and its stages.contain_panics, with every default
// made explicit (Resolved); the zero spec is a working monitor. Each
// window's report equals a cold rebuild of the same window (DESIGN.md
// §11).
func NewMonitor(meta TraceMeta, s *PipelineSpec) *Monitor {
	return online.New(meta, s.Resolved().MonitorConfig(nil))
}

// Victims exposes victim selection without full diagnosis.
func Victims(st *Store, opts ...Option) []Victim {
	c := resolve(opts)
	return core.NewEngine(c.coreConfig()).FindVictims(st)
}

// WorkloadConfig configures background traffic generation.
type WorkloadConfig struct {
	// Rate is the aggregate packet rate.
	Rate Rate
	// Duration is the schedule length.
	Duration Duration
	// Flows is the number of distinct five-tuples (default 4096).
	Flows int
	// Seed drives all workload randomness.
	Seed int64
}

// Workload is a replayable traffic schedule plus its flow mix.
type Workload struct {
	Mix      *traffic.Mix
	Schedule *traffic.Schedule
}

// Burst describes an injected traffic burst.
type Burst struct {
	At    Time
	Flow  FiveTuple
	Count int
	// Gap is the inter-packet spacing (defaults to near line rate).
	Gap Duration
}

// NewWorkload generates CAIDA-like background traffic.
func NewWorkload(cfg WorkloadConfig) *Workload {
	mix := traffic.NewMix(traffic.MixConfig{Flows: cfg.Flows, Seed: cfg.Seed})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate:     cfg.Rate,
		Duration: cfg.Duration,
		Seed:     cfg.Seed + 1,
	})
	return &Workload{Mix: mix, Schedule: sched}
}

// InjectBurst adds a burst to the workload (ground truth is tracked by the
// deployment automatically).
func (w *Workload) InjectBurst(b Burst) {
	id := int32(1)
	for _, e := range w.Schedule.Emissions {
		if e.Burst >= id {
			id = e.Burst + 1
		}
	}
	w.Schedule.InjectBurst(traffic.BurstSpec{
		ID: id, At: b.At, Flow: b.Flow, Count: b.Count, Gap: b.Gap,
	})
}

// InjectFlow adds a paced flow (Count packets every Gap) to the workload.
func (w *Workload) InjectFlow(flow FiveTuple, start Time, count int, gap Duration) {
	w.Schedule.InjectFlow(flow, start, count, gap, 64)
}

// PickFlow returns the i-th most popular background flow.
func (w *Workload) PickFlow(i int) FiveTuple {
	if len(w.Mix.Flows) == 0 {
		return FiveTuple{}
	}
	return w.Mix.Flows[i%len(w.Mix.Flows)].Tuple
}

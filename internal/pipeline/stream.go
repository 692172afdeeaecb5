// Incremental entry point: the sliding-window streaming counterpart to
// RunContext. A StreamState retains the tracestore.Stream (sealed epoch
// segments, watermark, eviction) and one long-lived diagnosis engine whose
// sharded memo is carried across windows; RunIncremental advances the
// stream by one window and diagnoses the assembled window store without
// re-reconstructing retained history.
//
// Stage layout of an incremental window run:
//
//	ingest → merge → index → victims → diagnose [→ patterns]
//
// ingest seals the window's new records into grid segments and evicts
// expired ones (O(new records)); merge assembles the fresh window store by
// concatenating sealed segments with the diagnosis index preset from
// per-segment summaries; the remaining stages are the classic tail,
// running over an engine whose memoized upstream decompositions survive
// from the previous window wherever eviction left them valid.
//
// Equivalence contract: for every window, the Result here is byte-
// identical (Fingerprint) to a cold full rebuild of the same window
// (Stream.RebuildWindow + RunStoreContext with a fresh engine), at every
// worker count, under -race, across degradation rungs and chaos faults.
// The degradation ladder, panic containment, and chaos hooks thread
// through unchanged — stages run inside the same containment boundaries.
package pipeline

import (
	"context"
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/obs"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// StreamState is the retained state of an incremental diagnosis stream:
// the segment store and one long-lived engine. Not goroutine-safe — it
// belongs to the single ingest goroutine (the online monitor's), like the
// Stream it wraps.
type StreamState struct {
	cfg Config
	str *tracestore.Stream
	eng *core.Engine
	reg *obs.Registry

	// prevPanics converts the engine's cumulative containment counter
	// into the per-window delta Result.ContainedPanics reports (matching
	// the fresh-engine-per-run offline semantics).
	prevPanics int64

	gDirty    *obs.Gauge
	gSegments *obs.Gauge
	gBytes    *obs.Gauge
	gCarried  *obs.Gauge
	gHeap     *obs.Gauge
	cEvicted  *obs.Counter
	// heapSample is the reused runtime/metrics read behind gHeap.
	heapSample [1]metrics.Sample
}

// NewStreamState creates the retained stream state for a deployment. The
// window/overlap geometry must match the caller's flush cadence: every
// RunIncremental end must be a multiple of window.
func NewStreamState(meta collector.Meta, window, overlap simtime.Duration, cfg Config) (*StreamState, error) {
	// Normalize exactly the way a per-run pipeline would, so the injected
	// engine sees the same diagnosis config a fresh per-window engine
	// would have.
	rcfg, reg := resolveConfig(cfg)
	str, err := tracestore.NewStream(meta, tracestore.StreamConfig{
		Window:         window,
		Overlap:        overlap,
		QueueThreshold: rcfg.Diagnosis.QueueThreshold,
	})
	if err != nil {
		return nil, err
	}
	ss := &StreamState{
		cfg: rcfg,
		str: str,
		eng: core.NewEngine(rcfg.Diagnosis),
		reg: reg,
	}
	if ss.reg != nil {
		ss.gDirty = ss.reg.Gauge("microscope_stream_dirty_nfs")
		ss.gSegments = ss.reg.Gauge("microscope_stream_retained_segments")
		ss.gBytes = ss.reg.Gauge("microscope_stream_retained_bytes")
		ss.gCarried = ss.reg.Gauge("microscope_stream_memo_carried")
		ss.gHeap = ss.reg.Gauge("microscope_stream_heap_bytes")
		ss.heapSample[0].Name = "/memory/classes/heap/objects:bytes"
		ss.cEvicted = ss.reg.Counter("microscope_stream_evicted_segments_total")
	}
	return ss, nil
}

// Stream exposes the underlying segment stream (watermark, reference
// rebuilds, cumulative stats) — the equivalence suite and the monitor's
// monotone health counters read it.
func (ss *StreamState) Stream() *tracestore.Stream { return ss.str }

// Stats returns the stream's cumulative seal-time accounting. Unlike
// per-window Health, these counters are monotone across watermark resyncs
// and never double-count overlap records.
func (ss *StreamState) Stats() tracestore.StreamStats { return ss.str.Stats() }

// RunIncremental advances the stream to the window ending at end — recs
// holds the window's new records, time-ordered; records at or before the
// seal watermark or beyond end are ignored, so a caller may also pass its
// whole pending slice — and diagnoses the assembled window at the given
// degradation rung. The returned Result matches a cold full rebuild of the
// same window byte for byte.
//
// At resilience.Skipped the window is still ingested and evicted (stream
// state must track the watermark through overload) but nothing is
// diagnosed, mirroring the ladder's contract for the batch path.
func RunIncremental(ctx context.Context, ss *StreamState, end simtime.Time, recs []collector.BatchRecord, degrade resilience.Level) (*Result, error) {
	return ss.RunWindow(ctx, end, degrade, recs)
}

// RunWindow is RunIncremental as a method, taking the records as the
// consecutive spans of one time-ordered sequence (the monitor passes its
// ring's backing slices). The spans are only read, and nothing retains
// them past the call: the stream copies each record once, into the
// segment that owns it.
func (ss *StreamState) RunWindow(ctx context.Context, end simtime.Time, degrade resilience.Level, spans ...[]collector.BatchRecord) (*Result, error) {
	cfg := ss.cfg
	cfg.Degrade = degrade
	//mslint:allow nondet spans and stage timings are observability metadata; diagnosis payloads never read them
	r := &run{cfg: cfg, reg: ss.reg, res: &Result{}, began: time.Now()}

	if err := r.stage(ctx, "ingest", func() {
		st := ss.str.Advance(end, spans...)
		if ss.reg != nil {
			ss.gDirty.Set(int64(st.DirtyComps))
			ss.gSegments.Set(int64(st.RetainedSegments))
			ss.gBytes.Set(st.RetainedBytes)
			ss.cEvicted.Add(int64(st.EvictedSegments))
			// runtime/metrics, not ReadMemStats: this runs for every
			// window, and ReadMemStats stops the world.
			metrics.Read(ss.heapSample[:]) //mslint:allow nondet heap gauge is observability metadata, never diagnosis input
			if v := ss.heapSample[0].Value; v.Kind() == metrics.KindUint64 {
				ss.gHeap.Set(int64(v.Uint64()))
			}
		}
	}); err != nil {
		return r.finish(), err
	}
	r.res.Degradation = degrade
	if degrade >= resilience.Skipped {
		// Ingest-only advance (overload skip or gap drain): the stream
		// state moved, but no pipeline ran — mirroring the batch monitor,
		// which never invokes the pipeline for a skipped window.
		return r.finish(), nil
	}
	if ss.reg != nil {
		ss.reg.Counter("microscope_pipeline_runs_total").Inc()
	}

	if err := r.stage(ctx, "merge", func() {
		st, rm := ss.str.Window(end)
		carried := 0
		if rm.First || !rm.Compatible || cfg.Diagnosis.QueueThreshold > 0 {
			// No previous window, an interner shape change (a component
			// evicted wholesale or renamed under corruption), or §7
			// threshold periods — whose timelines are clamped to the
			// moving window start — make carried entries unsound.
			ss.eng.ResetMemo(st)
		} else {
			carried = ss.eng.CarryMemo(st, core.MemoRemap{
				NewStart:     rm.NewStart,
				JourneyShift: rm.JourneyShift,
				ArrivalShift: rm.ArrivalShift,
			})
		}
		ss.gCarried.Set(int64(carried))
		r.res.Store = st
		r.res.Health = st.Health()
		st.RecordObs(r.reg)
	}); err != nil {
		return r.finish(), err
	}

	res, err := r.runStoreWith(ctx, ss.eng)
	// The long-lived engine's containment counter is cumulative; report
	// the per-window delta, matching fresh-engine runs.
	total := ss.eng.ContainedPanics()
	res.ContainedPanics = total - ss.prevPanics
	ss.prevPanics = total
	return res, err
}

// Fingerprint renders every diagnosis-relevant output of a Result in a
// canonical byte-exact form: degradation level, health, victims, causes at
// full float precision, and patterns. Two runs are "byte-identical" (the
// determinism and incremental-equivalence contracts) exactly when their
// fingerprints match. Timings, spans, and scheduling stats are excluded —
// they are observability metadata.
func (res *Result) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "level=%v victims=%d diagnoses=%d contained=%d relations=%d\n",
		res.Degradation, len(res.Victims), len(res.Diagnoses), res.ContainedPanics, res.Relations)
	fmt.Fprintf(&b, "health %s\n", res.Health.String())
	for _, v := range res.Victims {
		fmt.Fprintf(&b, "victim %d %s %s %d %d\n", v.Journey, v.Comp, v.Kind, v.ArriveAt, v.QueueDelay)
	}
	for i := range res.Diagnoses {
		for _, c := range res.Diagnoses[i].Causes {
			fmt.Fprintf(&b, "  cause %s %s %.17g %d %v\n", c.Comp, c.Kind, c.Score, c.At, c.CulpritJourneys)
		}
	}
	for _, p := range res.Patterns {
		fmt.Fprintf(&b, "pattern %s score=%.17g\n", p.String(), p.Score)
	}
	return b.String()
}

// Streaming entry point: the sliding-window counterpart to
// RunContext. A StreamState retains the tracestore.Stream (sealed epoch
// segments, watermark, eviction) and one long-lived diagnosis engine whose
// sharded memo is carried across windows; RunWindow advances the
// stream by one window and diagnoses the assembled window store without
// re-reconstructing retained history.
//
// Stage layout of an incremental window run:
//
//	ingest → merge → index → victims → diagnose [→ patterns]
//
// ingest seals the window's new records into grid segments and evicts
// expired ones (O(new records)); merge brings the stream's one window store
// up to date in place — evicted segments' rows leave, newly sealed
// segments' rows are appended, and the store's summaries follow from
// theirs (O(rows entering and leaving)); the remaining stages are the
// classic tail, running over an engine whose memoized upstream
// decompositions survive from the previous window wherever eviction left
// them valid.
//
// Lifetime: Result.Store of a window run is lent. It is the stream's own
// window store, the same pointer every window, and describes this window
// only until the next RunWindow on the same StreamState begins. Whatever outlives that — a summary, a hash, a copied
// journey — must be taken before then.
//
// Equivalence contract: for every window, the Result here is byte-
// identical (Fingerprint) to a cold full rebuild of the same window
// (tracestore.Recorder.Rebuild + RunStoreContext with a fresh engine), at
// every worker count, under -race, across degradation rungs and chaos
// faults.
// The degradation ladder, panic containment, and chaos hooks thread
// through unchanged — stages run inside the same containment boundaries.
package pipeline

import (
	"context"
	"runtime/metrics"
	"strconv"
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
// RunWindow end must be a multiple of window.
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

// RunWindow advances the stream to the window ending at end and diagnoses
// the assembled window at the given degradation rung. recs are the
// window's new records, time-ordered (the monitor passes its pending
// buffer); records at or before the seal watermark or beyond end are
// ignored, so a caller may also pass its whole history. recs is only read,
// and nothing retains it past the call: the stream seals each segment from
// its run of recs where it lies and keeps what it derived, not the
// records. The returned Result matches a cold full rebuild of the same
// window byte for byte.
//
// At resilience.Skipped the window is still ingested and evicted (stream
// state must track the watermark through overload) but nothing is
// diagnosed.
func (ss *StreamState) RunWindow(ctx context.Context, end simtime.Time, degrade resilience.Level, recs []collector.BatchRecord) (*Result, error) {
	cfg := ss.cfg
	cfg.Degrade = degrade
	//mslint:allow nondet spans and stage timings are observability metadata; diagnosis payloads never read them
	r := &run{cfg: cfg, reg: ss.reg, res: &Result{}, began: time.Now()}

	if err := r.stage(ctx, "ingest", func() {
		st := ss.str.Advance(end, recs)
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
		// state moved, but no pipeline ran and no run is counted.
		return r.finish(), nil
	}
	if ss.reg != nil {
		ss.reg.Counter("microscope_pipeline_runs_total").Inc()
	}

	if err := r.stage(ctx, "merge", func() {
		st, rm := ss.str.Window(end)
		carried := 0
		if !rm.Compatible || cfg.Diagnosis.QueueThreshold > 0 {
			// A window store assembled from scratch (the first window, an
			// interner shape change, a contained panic), or §7 threshold
			// periods — whose timelines are clamped to the moving window
			// start — make carried entries unsound.
			ss.eng.ResetMemo(st)
		} else {
			carried = ss.eng.CarryMemo(st, rm.NewStart)
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
func (res *Result) Fingerprint() string { return string(res.AppendFingerprint(nil)) }

// AppendFingerprint appends the fingerprint's bytes to dst, for a caller
// that hashes every window and keeps its buffer. The serving tier renders
// some hundred lines per window here, so the lines are put together with
// strconv: %d is AppendInt, %.17g is AppendFloat('g', 17), and a journey
// list is fmt's %v form of an []int.
func (res *Result) AppendFingerprint(dst []byte) []byte {
	dst = append(dst, "level="...)
	dst = append(dst, res.Degradation.String()...)
	dst = append(dst, " victims="...)
	dst = strconv.AppendInt(dst, int64(len(res.Victims)), 10)
	dst = append(dst, " diagnoses="...)
	dst = strconv.AppendInt(dst, int64(len(res.Diagnoses)), 10)
	dst = append(dst, " contained="...)
	dst = strconv.AppendInt(dst, res.ContainedPanics, 10)
	dst = append(dst, " relations="...)
	dst = strconv.AppendInt(dst, int64(res.Relations), 10)
	dst = append(dst, "\nhealth "...)
	dst = res.Health.AppendString(dst)
	dst = append(dst, '\n')
	for i := range res.Victims {
		v := &res.Victims[i]
		dst = append(dst, "victim "...)
		dst = strconv.AppendInt(dst, int64(v.Journey), 10)
		dst = append(dst, ' ')
		dst = append(dst, v.Comp...)
		dst = append(dst, ' ')
		dst = append(dst, v.Kind.String()...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(v.ArriveAt), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(v.QueueDelay), 10)
		dst = append(dst, '\n')
	}
	for i := range res.Diagnoses {
		for k := range res.Diagnoses[i].Causes {
			c := &res.Diagnoses[i].Causes[k]
			dst = append(dst, "  cause "...)
			dst = append(dst, c.Comp...)
			dst = append(dst, ' ')
			dst = append(dst, c.Kind.String()...)
			dst = append(dst, ' ')
			dst = strconv.AppendFloat(dst, c.Score, 'g', 17, 64)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(c.At), 10)
			dst = append(dst, " ["...)
			for n, j := range c.CulpritJourneys {
				if n > 0 {
					dst = append(dst, ' ')
				}
				dst = strconv.AppendInt(dst, int64(j), 10)
			}
			dst = append(dst, "]\n"...)
		}
	}
	for i := range res.Patterns {
		p := &res.Patterns[i]
		dst = append(dst, "pattern "...)
		dst = append(dst, p.String()...)
		dst = append(dst, " score="...)
		dst = strconv.AppendFloat(dst, p.Score, 'g', 17, 64)
		dst = append(dst, '\n')
	}
	return dst
}

package tracestore

import (
	"slices"

	"microscope/internal/collector"
	"microscope/internal/simtime"
)

// Recorder is the reference the equivalence suites hold a stream's windows
// to. It keeps its own copy of every run of records the stream seals,
// forgets each on the stream's retention horizon, and rebuilds the current
// window cold from the copies. A stream keeps only what it derived from its
// input, so the reference cannot read the input back from it; nothing in
// production attaches a Recorder.
type Recorder struct {
	s    *Stream
	runs []recordedRun
}

// recordedRun is the recorder's copy of one sealed segment's records.
type recordedRun struct {
	lo, hi simtime.Time
	point  bool
	recs   []collector.BatchRecord
}

// NewRecorder attaches a recorder to s before its first Advance; a stream
// has at most one.
func NewRecorder(s *Stream) *Recorder {
	r := &Recorder{s: s}
	s.sealHook = r.record
	return r
}

// record copies a run as the stream seals it, payloads included.
func (r *Recorder) record(g *Segment, run []collector.BatchRecord) {
	r.evict()
	recs := slices.Clone(run)
	for i := range recs {
		recs[i].IPIDs = slices.Clone(recs[i].IPIDs)
		recs[i].Tuples = slices.Clone(recs[i].Tuples)
	}
	r.runs = append(r.runs, recordedRun{lo: g.lo, hi: g.hi, point: g.point, recs: recs})
}

// evict forgets the runs below the stream's horizon, by the stream's rule.
func (r *Recorder) evict() {
	start, n := r.s.horizon(), 0
	for n < len(r.runs) && !kept(r.runs[n].lo, r.runs[n].hi, r.runs[n].point, start) {
		n++
	}
	r.runs = slices.Delete(r.runs, 0, n)
}

// Rebuild is the cold reference path: Build every retained run's copy
// afresh and append the stores to a fresh window store. It shares no state
// with the stream — not its input, its segment stores, nor the scratch they
// were sealed through — but it does share the window store's append, so
// the equivalence suites hold Window's output to byte-identical reports
// against this, and the independent check of the merged summaries is a
// test-only scan (VerifyWindow).
func (r *Recorder) Rebuild() *Store {
	r.evict()
	var w window
	w.reset(r.s.meta, r.s.thr)
	var traceEnd simtime.Time
	for _, run := range r.runs {
		st := Build(&collector.Trace{Meta: r.s.meta, Records: run.recs})
		w.append(st)
		traceEnd = max(traceEnd, st.traceEnd)
	}
	return w.publish(traceEnd)
}

package tracestore

import (
	"fmt"
	"math"
	"unsafe"

	"microscope/internal/collector"
	"microscope/internal/simtime"
)

// This file is the incremental sliding-window trace index: the streaming
// counterpart to Build+Index that stops rebuilding the world every window.
//
// The stream partitions time into *epoch segments* along a fixed grid
// derived from the monitor's window geometry (window W, overlap O). Two
// boundary families exist:
//
//	flush boundaries  F = { k·W }       — a record at exactly k·W belongs
//	                                      LEFT (the window it closes),
//	                                      matching the monitor's
//	                                      strictly-greater flush loop;
//	retain boundaries R = { k·W − O }   — a record at exactly k·W−O
//	                                      belongs RIGHT, matching the
//	                                      monitor's At ≥ end−O overlap
//	                                      retention.
//
// Every sliding window [end−W−O, end] is an exact union of grid segments,
// and the eviction horizon end−W−O is always a boundary, so advancing the
// window retires whole segments in O(1) — no survivor copying, ever.
//
// Each segment is sealed exactly once, when the watermark passes it: the
// step a cold Build runs (derive: build, reconstruct, summarize) goes over
// the segment's run of records where it lies in the caller's input — the
// monitor's pending buffer, where each record got its one copy — freezing
// the store's mergeable summaries (exact per-NF delay moments, sorted
// delivered latencies, trace end, queuing-period search arrays). The
// segment keeps what it derived and the run's length, never the records:
// when derive returns nothing of the stream points into the run, so a
// record's IPID and tuple payload is released as soon as its caller lets go
// of it. Everything a segment retains lives in its shell and is refilled in
// place when the shell is recycled; everything needed only while sealing
// lives in one stream-owned scratch, so sealing allocates nothing once the
// shells and the scratch have grown to size. A window is then assembled in
// the stream's one window store (window.go) by appending the segments
// sealed since the last window and dropping the ones evicted since —
// per-record work happens once when a record is sealed, once when its
// segment enters the window and once when it leaves, not once per window it
// slides through.
//
// Window-assembly semantics: journeys are reconstructed within a segment,
// so a packet whose hops straddle a segment boundary contributes one
// (partial) journey per segment, and its dequeue legs on the far side
// count as unmatched. This is a *shared* semantic of both the incremental
// path and the cold reference rebuild (Recorder.Rebuild), which re-runs
// Build per segment over its own copies of the sealed runs — the
// equivalence contract ("byte-identical reports to a full rebuild of the
// same window") is over this common grid.

// StreamConfig fixes a stream's window geometry and index threshold.
type StreamConfig struct {
	// Window is the flush period W; window ends are multiples of it.
	Window simtime.Duration
	// Overlap is the retained-history overlap O carried across flushes.
	// It may equal or exceed Window: the grid's retain-boundary lattice
	// {k·W − O} is W-periodic in O, so a long analysis span sliding at a
	// short reporting cadence (e.g. 1 ms alerts over 5 ms of context) is
	// the same grid with a deeper retention horizon.
	Overlap simtime.Duration
	// QueueThreshold is the §7 period threshold the per-window index is
	// assembled for (0 = the paper's base definition).
	QueueThreshold int
}

// Segment is one sealed grid segment: the store made from its records,
// whose summaries the window store adds when the segment enters the window
// and subtracts when it leaves. The records themselves are not kept, only
// their count (the store's Health().Records). Shells are recycled through
// the stream's free list; reset restamps the epoch before reuse.
type Segment struct {
	// epoch is the generation stamp: monotonically increasing across the
	// stream's lifetime, rewritten on every reuse so a stale reference to
	// a recycled shell is detectable.
	epoch uint64
	// [lo, hi] grid span. point marks a degenerate dual-boundary segment
	// owning exactly the instant lo == hi.
	lo, hi simtime.Time
	point  bool

	// st is the segment-local store: journeys, arrivals, reads, period
	// index and summaries, what the window store copies its rows from and
	// adds its summaries from. It points at store while the segment is
	// live and is nil on the free list; store keeps its arrays across
	// recycling (Store.recycle).
	st    *Store
	store Store

	bytes int64 // retained-size estimate
}

// reset prepares a (possibly recycled) shell for reuse: restamp the
// generation epoch and forget the previous occupant's span and store.
// Reuse without this reset leaks the previous occupant's rows into the next
// window, which the incremental-vs-rebuild equivalence suites (make
// stream-check) catch.
func (g *Segment) reset(epoch uint64) {
	g.epoch = epoch
	g.lo, g.hi, g.point = 0, 0, false
	g.st = nil
	g.bytes = 0
}

// StreamStats is the stream's accounting snapshot. The cumulative fields
// are seal-time totals: every record is sealed into exactly one segment,
// so unlike per-window health (whose overlap double-counts and whose
// counters reset at watermark resyncs) they are monotone for the life of
// the stream.
type StreamStats struct {
	// SealedSegments / DirtyComps / EvictedSegments describe the most
	// recent Advance: segments sealed, distinct components that received
	// records, segments retired.
	SealedSegments  int
	DirtyComps      int
	EvictedSegments int

	// EvictedTotal / RetainedSegments / RetainedBytes describe current
	// retention.
	EvictedTotal     int
	RetainedSegments int
	RetainedBytes    int64

	// Records / Journeys / Recon / Integrity are cumulative seal-time
	// totals (monotone).
	Records   int64
	Journeys  int64
	Recon     ReconStats
	Integrity collector.Integrity

	// WindowRows is the cumulative work of every Window call, in rows of
	// the window store's columns: a count, not a time, so it is the same
	// on any host and in any run.
	WindowRows WindowRows
}

// WindowRows counts window-assembly work in rows, summed over every column
// the window store keeps (window.go): rows appended behind the live ones,
// rows dropped from the front, and live rows moved to make room for
// appends (col.reserve, which pays for each row it moves with a row
// appended after the move).
type WindowRows struct {
	Appended, Dropped, Moved int64
}

// WindowRemap tells a memo holder whether state cached against the
// previous Window() result still describes the new one. Nothing needs
// translating: row references and component ids in a carried entry mean
// the same rows and components in the new window, as long as the rows are
// still there.
type WindowRemap struct {
	// Compatible reports that the window store was brought up to date in
	// place, so component ids and row references handed out for the
	// previous window remain valid. When false — the first window, one
	// assembled from scratch after the interner changed shape, after
	// nothing of the previous window was retained, or after a contained
	// panic — carried state must be dropped wholesale.
	Compatible bool
	// NewStart is the new window's data start (end − W − O): cached
	// periods starting before it may reference evicted history.
	NewStart simtime.Time
}

// Stream is the retained sliding-window state: sealed segments in time
// order, a recycled-shell free list, and cumulative accounting. It is not
// goroutine-safe; the online monitor drives it from its single ingest
// goroutine.
type Stream struct {
	meta collector.Meta
	w, o simtime.Duration
	thr  int

	segs  []*Segment
	free  []*Segment
	epoch uint64

	// sc is the build scratch every seal runs through; dirty is Advance's
	// reused set of component names that received records; cuts is its
	// reused list of the input's runs, one per grid segment.
	sc    scratch
	dirty map[string]struct{} //mslint:allow compid dirty set spans segments whose CompIDs are per-segment; names are the stable identity
	cuts  []cut

	// sealHook, when non-nil, sees every run as it is sealed: the Recorder
	// the equivalence suites rebuild from. Never set in production paths.
	sealHook func(g *Segment, run []collector.BatchRecord)

	// sealedTo is the high watermark: records at or before it are sealed
	// (flush-boundary typed: At == sealedTo belongs to sealed history).
	sealedTo simtime.Time

	last StreamStats

	// win is the window store, what Window hands out. The first applied
	// segments of segs are in it; dropped are the segments evicted since
	// the last Window that still are, in eviction order. A dropped
	// segment's shell is kept off the free list until Window has taken its
	// rows back out, because that is done by reading how many there were.
	// Segments sealed and evicted between two Window calls never enter the
	// window store, so an ingest-only Advance (a skipped or empty window, a
	// gap drain) does no window work at all.
	win     window
	applied int
	dropped []*Segment
}

// NewStream creates an empty stream for the given deployment meta and
// window geometry. Window must be positive and Overlap non-negative.
func NewStream(meta collector.Meta, cfg StreamConfig) (*Stream, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("stream: window must be positive, got %v", cfg.Window)
	}
	if cfg.Overlap < 0 {
		return nil, fmt.Errorf("stream: overlap must be non-negative, got %v", cfg.Overlap)
	}
	if cfg.QueueThreshold < 0 {
		cfg.QueueThreshold = 0
	}
	return &Stream{
		meta: meta,
		w:    cfg.Window,
		o:    cfg.Overlap,
		thr:  cfg.QueueThreshold,
		// -1, not 0: a record at exactly t=0 is not yet sealed (no
		// window has ever flushed), and Advance's already-sealed guard
		// is boundary-typed (At <= sealedTo).
		sealedTo: -1,
		dirty:    make(map[string]struct{}), //mslint:allow compid dirty set spans segments whose CompIDs are per-segment; names are the stable identity
	}, nil
}

// SealedTo returns the stream's seal watermark.
func (s *Stream) SealedTo() simtime.Time { return s.sealedTo }

// Stats returns the current accounting snapshot.
func (s *Stream) Stats() StreamStats { return s.last }

// segOf returns the grid segment owning time t, by boundary arithmetic
// (never a boundary walk, so a resync gap of any size costs nothing).
func (s *Stream) segOf(t simtime.Time) (lo, hi simtime.Time, point bool) {
	w, o := int64(s.w), int64(s.o)
	tt := int64(t)
	if tt < 0 {
		tt = 0
	}
	onF := tt%w == 0
	// t == 0 is an F boundary but has no window to its left; treating it
	// as dual parks it in a point segment evicted on the normal schedule.
	onR := o > 0 && ((tt+o)%w == 0 || tt == 0)
	switch {
	case onF && o == 0:
		// No overlap: F and R coincide; every boundary is dual.
		return t, t, true
	case onF && onR:
		return t, t, true
	case onF:
		// Flush boundary: belongs LEFT, segment ends here.
		return simtime.Time(prevBoundary(tt, w, o)), t, false
	case onR:
		// Retain boundary: belongs RIGHT, segment starts here.
		return t, simtime.Time(nextBoundary(tt, w, o)), false
	default:
		return simtime.Time(prevBoundary(tt, w, o)), simtime.Time(nextBoundary(tt, w, o)), false
	}
}

// prevBoundary is the largest grid boundary < tt (clamped at 0).
func prevBoundary(tt, w, o int64) int64 {
	f := ((tt - 1) / w) * w // tt >= 1 when called off-boundary-left
	if tt <= 0 {
		return 0
	}
	b := f
	if o > 0 {
		if r := ((tt-1+o)/w)*w - o; r >= 0 && r > b {
			b = r
		}
	}
	if b < 0 {
		b = 0
	}
	return b
}

// nextBoundary is the smallest grid boundary > tt.
func nextBoundary(tt, w, o int64) int64 {
	b := ((tt + w) / w) * w // smallest multiple of w >= tt+1 for tt >= 0
	if tt%w == 0 {
		b = tt + w
	}
	if o > 0 {
		if r := ((tt+o+w)/w)*w - o; r > tt && r < b {
			b = r
		}
	}
	return b
}

// Advance seals every record with sealedTo < At ≤ end into grid segments,
// moves the watermark to end, and retires segments that fell wholly below
// the retention horizon end − W − O. end must be a flush boundary (a
// multiple of W). recs is only read, and only during the call: each
// segment is derived from its run of recs where it lies, and keeps nothing
// that points into it. Records at or before the watermark (sealed by an
// earlier Advance) or beyond end (a later window's) are ignored. Input that
// is not time-ordered is first filtered and stably sorted into a copy, and
// the inversions counted as resorts.
func (s *Stream) Advance(end simtime.Time, recs []collector.BatchRecord) StreamStats {
	s.last.SealedSegments = 0
	s.last.DirtyComps = 0
	s.last.EvictedSegments = 0

	if !s.split(end, recs) {
		recs = s.filterSorted(end, recs)
		s.split(end, recs)
	}
	clear(s.dirty)
	for _, c := range s.cuts {
		g := s.takeSegment()
		g.lo, g.hi, g.point = c.lo, c.hi, c.point
		s.seal(g, recs[c.from:c.to])
	}
	s.last.DirtyComps = len(s.dirty)

	if end > s.sealedTo {
		s.sealedTo = end
	}
	s.evict(s.horizon())

	s.last.RetainedSegments = len(s.segs)
	s.last.RetainedBytes = 0
	for _, g := range s.segs {
		s.last.RetainedBytes += g.bytes
	}
	return s.last
}

// cut is one grid segment's run of Advance's input, recs[from:to].
type cut struct {
	lo, hi   simtime.Time
	point    bool
	from, to int
}

// split cuts the records of recs in (sealedTo, end] into one run per grid
// segment, in s.cuts, reading each record's time once. It reports false,
// before anything is sealed, if recs is not in time order.
func (s *Stream) split(end simtime.Time, recs []collector.BatchRecord) bool {
	s.cuts = s.cuts[:0]
	var c *cut
	prev := simtime.Time(math.MinInt64)
	for i := range recs {
		at := recs[i].At
		if at < prev {
			return false
		}
		prev = at
		if at <= s.sealedTo || at > end {
			continue
		}
		if c == nil || !s.owns(c, at) {
			lo, hi, point := s.segOf(at)
			s.cuts = append(s.cuts, cut{lo: lo, hi: hi, point: point, from: i})
			c = &s.cuts[len(s.cuts)-1]
		}
		c.to = i + 1
	}
	return true
}

// filterSorted is Advance's path for input that is not time-ordered: copy
// out the records in (sealedTo, end] and sort them stably by time,
// counting inversions as resorts so the cumulative integrity stays
// meaningful.
func (s *Stream) filterSorted(end simtime.Time, recs []collector.BatchRecord) []collector.BatchRecord {
	var live []collector.BatchRecord
	for i := range recs {
		if r := &recs[i]; r.At > s.sealedTo && r.At <= end {
			live = append(live, *r)
		}
	}
	s.last.Integrity.Resorted += collector.SortByTime(live)
	return live
}

// RecordsFrom returns how many records the retained segments hold at or
// after t, a retain boundary (k·W − O, or before the first): the sealed
// part of the window that starts at t. No segment straddles a boundary, so
// a segment counts whole or not at all.
func (s *Stream) RecordsFrom(t simtime.Time) int {
	n := 0
	for _, g := range s.segs {
		if g.lo >= t {
			n += g.st.recCount
		}
	}
	return n
}

// owns reports whether the grid segment of run c owns time t. Anything
// strictly inside (lo, hi) does; a boundary instant goes by segOf's typing.
func (s *Stream) owns(c *cut, t simtime.Time) bool {
	if t > c.lo && t < c.hi {
		return true
	}
	lo, _, point := s.segOf(t)
	return lo == c.lo && point == c.point
}

// seal makes the segment's store from its run of Advance's input: derive,
// the step a cold Build runs, through the segment's recycled store and the
// stream's scratch, over the run where it lies. Nothing of the store points
// into the run afterwards.
func (s *Stream) seal(g *Segment, run []collector.BatchRecord) {
	st := &g.store
	st.traceBuf = collector.Trace{Meta: s.meta, Records: run}
	st.derive(&st.traceBuf, &s.sc)
	st.traceBuf.Records = nil
	if s.sealHook != nil {
		s.sealHook(g, run)
	}
	g.st = st
	for _, v := range st.views {
		if len(v.Arrivals) > 0 || len(v.Reads) > 0 {
			s.dirty[v.Name] = struct{}{}
		}
	}
	g.bytes = g.sizeBytes()
	s.segs = append(s.segs, g)
	s.last.SealedSegments++
	s.last.Records += int64(st.recCount)
	s.last.Journeys += int64(len(st.Journeys))
	addRecon(&s.last.Recon, st.recon, +1)
	addIntegrity(&s.last.Integrity, st.Trace.Integrity, +1)
}

// takeSegment pops a recycled shell (or allocates one) and stamps it with
// a fresh generation epoch via reset before handing it out.
func (s *Stream) takeSegment() *Segment {
	var g *Segment
	if n := len(s.free); n > 0 {
		g = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		g = &Segment{}
	}
	s.epoch++
	g.reset(s.epoch)
	return g
}

// evict retires segments wholly below start (the retention horizon) in
// O(1) per segment. start is always a grid boundary, so segments are never
// split: a non-point segment survives iff any of it lies strictly above
// start (its lo is then ≥ start by grid alignment), a point segment iff its
// instant is still in [start, ...]. A segment the window store holds rows
// of waits in dropped for the next Window; any other goes straight back to
// the free list.
func (s *Stream) evict(start simtime.Time) {
	n := 0
	for n < len(s.segs) {
		g := s.segs[n]
		if kept(g.lo, g.hi, g.point, start) {
			break
		}
		if s.applied > 0 {
			s.applied--
			s.dropped = append(s.dropped, g)
		} else {
			s.retire(g)
		}
		n++
	}
	if n > 0 {
		s.segs = append(s.segs[:0], s.segs[n:]...)
		s.last.EvictedSegments += n
		s.last.EvictedTotal += n
	}
}

// horizon is the retention horizon at the current watermark, sealedTo − W
// − O: the start of the latest window.
func (s *Stream) horizon() simtime.Time { return s.sealedTo - simtime.Time(s.w+s.o) }

// kept reports whether the grid segment [lo, hi] survives eviction to
// start: a non-point segment iff any of it lies strictly above start, a
// point segment iff its instant is at or after start.
func kept(lo, hi simtime.Time, point bool, start simtime.Time) bool {
	if point {
		return lo >= start
	}
	return hi > start
}

// retire parks the shell on the free list, where its store's arrays wait
// for the next seal.
func (s *Stream) retire(g *Segment) {
	g.st = nil
	s.free = append(s.free, g)
}

// Window brings the stream's window store up to date for the window ending
// at end — the rows of the segments evicted since the last call leave from
// the front, the rows of the segments sealed since are appended, and the
// diagnosis index follows from their seal-time summaries, so the work is
// proportional to what entered and left, not to the span — and reports
// whether state cached against the previous window carries over.
//
// The store is lent: it is the same *Store every call, valid until the
// next one, and its Generation tells a stale holder apart. When it cannot
// be updated in place it is emptied and every retained segment appended
// (the one other way to assemble it, also how the first window is).
func (s *Stream) Window(end simtime.Time) (*Store, WindowRemap) {
	w := &s.win
	rm := WindowRemap{
		Compatible: w.valid && s.applied > 0 && s.internerIntact(),
		NewStart:   end - simtime.Time(s.w+s.o),
	}
	w.valid = false
	var wr WindowRows
	if rm.Compatible {
		for _, g := range s.dropped {
			wr.add(w.drop(g.st))
		}
	} else {
		w.reset(s.meta, s.thr)
		s.applied = 0
	}
	for i, g := range s.dropped {
		s.retire(g)
		s.dropped[i] = nil
	}
	s.dropped = s.dropped[:0]
	var traceEnd simtime.Time
	for i, g := range s.segs {
		if i >= s.applied {
			wr.add(w.append(g.st))
		}
		traceEnd = max(traceEnd, g.st.traceEnd)
	}
	s.applied = len(s.segs)
	st := w.publish(traceEnd)
	w.valid = true
	s.last.WindowRows.add(wr)
	return st, rm
}

// internerIntact reports whether taking the dropped segments out leaves
// the window store's interner as assembling the retained segments from
// scratch would build it: components the meta does not declare are interned
// in the order the segments first mention them, so one leaving with its
// only (or first) mention changes the ids of those after it.
func (s *Stream) internerIntact() bool {
	w := &s.win
	undeclared := false
	for _, g := range s.dropped {
		// A segment store interns every declared component and edge
		// endpoint; anything beyond is a component only records named.
		undeclared = undeclared || len(g.st.views) != w.nStatic
	}
	if !undeclared {
		return true
	}
	next := w.nStatic
	for _, g := range s.segs[:s.applied] {
		for _, v := range g.st.views {
			switch id := int(w.st.byName[v.Name]); {
			case id < next: // declared, or already met
			case id == next:
				next++
			default:
				return false
			}
		}
	}
	return next == len(w.st.views)
}

// sizeBytes estimates a sealed segment's retained footprint: every array
// its store keeps.
// An estimate, not an accounting — the slices' lengths, not their
// capacities, and no headers — used for the retained-bytes gauge and the
// steady-state heap bound.
func (g *Segment) sizeBytes() int64 {
	st := g.st
	b := sizeOf(st.hopArena) + sizeOf(st.Journeys) + sizeOf(st.moments) + sizeOf(st.latRun)
	for _, v := range st.views {
		pi := &v.pidx
		b += sizeOf(v.Arrivals) + sizeOf(v.Reads) +
			sizeOf(pi.arrivalTimes) + sizeOf(pi.drainTimes) + sizeOf(pi.readTimes) + sizeOf(pi.readCum)
	}
	return b
}

// sizeOf is the size of s's elements.
func sizeOf[T any](s []T) int64 {
	var elem T
	return int64(len(s)) * int64(unsafe.Sizeof(elem))
}

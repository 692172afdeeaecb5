package tracestore

import (
	"microscope/internal/collector"
	"microscope/internal/simtime"
	"microscope/internal/stats"
)

// This file is the window store: the one Store a Stream assembles its
// sliding window in. It is built from two operations on sealed segments —
// append one behind the rows already there, drop one from the front — so
// what a window costs to assemble is proportional to the segments that
// entered and left since the last one, not to how many it spans.
//
// Every table is a column (col) with its live rows in the middle of a
// longer array: rows are appended at the tail, dropped by advancing the
// head, and moved back to the front of the array only when the tail runs
// out of room, which a steady window does once per span or so. Nothing in
// a row changes when its neighbours leave: row references are
// stream-absolute (reconstruct.go), component ids stay put for as long as
// the window's interner does, and the one table of Go pointers — each
// Journey's Hops, a slice of the hop column — is re-pointed only when the
// hop column itself moves.
//
// The summaries the diagnosis index reads follow the same add/drop. Every
// appended store carries its own (summarize): per-NF delay moments and the
// reconstruction and integrity counters are added and subtracted exactly,
// the delivered latencies stay in the segments' sorted runs — the window
// keeps a column of their headers, and the latency percentile is selected
// across them — and the queuing-period search arrays are four more columns
// per component. What cannot be kept by add and drop is rebuilt per window
// and costs what it did before: the §7 queue-length timelines (only with a
// nonzero threshold) and the lazily built flow index.

// col is one column of the window store. The live rows are buf[head:]. Rows
// outside them are dead but not zeroed: a dead Journey still points into
// the hop array it was appended to, which is the live hop array unless the
// hop column has since outgrown it — and then only until new journeys have
// been written over the dead ones, a span or so later.
type col[T any] struct {
	buf  []T
	head int
}

func (c *col[T]) rows() []T { return c.buf[c.head:] }
func (c *col[T]) len() int  { return len(c.buf) - c.head }
func (c *col[T]) reset()    { c.buf, c.head = c.buf[:0], 0 }

// drop removes the n oldest live rows.
func (c *col[T]) drop(n int, wr *WindowRows) {
	c.head += n
	wr.Dropped += int64(n)
}

// reserve makes room for n more rows, so that appending them to buf does
// not reallocate, and reports whether the live rows moved to make it. When
// the tail has run out, the live rows move to the front of the array if
// that leaves room for the n new rows and as many again as were moved —
// so a row is moved at most once per row appended — and to a new array
// with that much room otherwise. Either way a column's capacity is at most
// twice the rows of its largest window, and nearer once when most of each
// window is new.
func (c *col[T]) reserve(n int, wr *WindowRows) (moved bool) {
	if len(c.buf)+n <= cap(c.buf) {
		return false
	}
	live := c.rows()
	if room := 2*len(live) + n; room <= cap(c.buf) {
		c.buf = c.buf[:copy(c.buf[:len(live)], live)]
	} else {
		c.buf = append(make([]T, 0, room), live...)
	}
	c.head = 0
	wr.Moved += int64(len(live))
	return true
}

// add appends rows in one copy and returns them where they now are, for the
// caller to adjust in place, and whether the live rows moved to make room.
func (c *col[T]) add(rows []T, wr *WindowRows) (added []T, moved bool) {
	moved = c.reserve(len(rows), wr)
	n := len(c.buf)
	c.buf = append(c.buf, rows...)
	wr.Appended += int64(len(rows))
	return c.buf[n:], moved
}

// viewCols are one component's columns: its arrivals and reads, and the
// four arrays of its queuing-period search index (periodIndex).
type viewCols struct {
	arrivals col[Arrival]
	reads    col[ReadEvent]

	arrivalTimes col[simtime.Time]
	drainTimes   col[simtime.Time]
	readTimes    col[simtime.Time]
	// readCum holds one value more than reads: the packets read before
	// each event, counted since the column was emptied, then the total.
	readCum col[int]
}

// window is a window store under assembly. A Stream owns one for its
// lifetime and keeps it current by drop and append; the cold reference
// rebuild (Recorder.Rebuild) makes a fresh one and only appends.
type window struct {
	st Store
	ix Index

	// valid is false while the columns are being changed: a panic
	// contained half-way through an update leaves it false, and the next
	// window is assembled from scratch instead of from a torn store.
	valid bool

	// nStatic is how many leading components were interned from the
	// deployment meta; the rest appeared in records, in segment order.
	nStatic int

	journeys col[Journey]
	hops     col[JourneyHop]
	views    []viewCols // by window CompID

	// runs are the appended segments' sorted latency runs (each segment
	// store's latRuns, its own latRun), which the latency percentile is
	// selected from. They alias the segments' arrays, so a run must leave
	// before its segment's shell is sealed into again: Stream.Window drops
	// the evicted segments before retire hands their shells back.
	runs col[[]float64]

	// land is where the segment being appended lands, by segment CompID.
	land []landing

	// appendHook, when non-nil, runs half-way through every append — tests
	// use it to inject a panic into a half-updated store. Never set in
	// production paths.
	appendHook func()
}

// landing is where one component's rows of an appended segment go: its
// window CompID, and the references the segment's first arrival, read event
// and read packet at that component get.
type landing struct {
	id                   CompID
	arrival, read, entry int
}

// reset empties the window store and interns the deployment's components,
// in Build's order: declared components, then edge endpoints.
func (w *window) reset(meta collector.Meta, thr int) {
	m := &w.st
	if m.Trace == nil {
		m.Trace = &collector.Trace{Meta: meta}
		m.byName = make(map[string]CompID, len(meta.Components)+1) //mslint:allow compid this IS the window store's interner, mirroring Build
		m.MaxBatch = meta.MaxBatch
		if m.MaxBatch <= 0 {
			m.MaxBatch = 32
		}
	}
	m.Trace.Integrity = collector.Integrity{}
	clear(m.byName)
	m.names, m.views = m.names[:0], m.views[:0]
	for i := range meta.Components {
		m.view(meta.Components[i].Name)
	}
	for _, e := range meta.Edges {
		m.view(e.From)
		m.view(e.To)
	}
	w.nStatic = len(m.views)
	m.recon, m.recCount, m.firstJourney = ReconStats{}, 0, 0
	m.moments = m.moments[:0]
	m.traceEnd = 0
	m.flowIdx = nil

	w.journeys.reset()
	w.hops.reset()
	w.runs.reset()
	for i := range w.views {
		w.views[i].reset()
	}

	w.ix = Index{store: m, QueueThreshold: thr}
	m.indexes = map[int]*Index{thr: &w.ix}
	w.interned()
}

func (vc *viewCols) reset() {
	vc.arrivals.reset()
	vc.reads.reset()
	vc.arrivalTimes.reset()
	vc.drainTimes.reset()
	vc.readTimes.reset()
	vc.readCum.reset()
	vc.readCum.buf = append(vc.readCum.buf, 0)
}

// interned brings everything sized by the component count up to date
// after the interner grew: the meta tables, and a set of columns and a
// moments slot per new component.
func (w *window) interned() {
	m := &w.st
	n := len(m.views)
	m.metaFor = -1
	m.buildMetaTables()
	for len(m.moments) < n {
		m.moments = append(m.moments, stats.Moments{})
	}
	for len(w.views) < n {
		w.views = append(w.views, viewCols{})
		w.views[len(w.views)-1].reset()
	}
	w.views = w.views[:n]
}

// append adds one segment's store behind the rows already in the window,
// and its summaries to the window's, and returns the rows it wrote.
func (w *window) append(st *Store) (wr WindowRows) {
	m := &w.st
	w.land = resize(w.land, len(st.views))
	land := w.land
	grew := false
	for _, v := range st.views {
		id, ok := m.byName[v.Name]
		if !ok {
			id, grew = m.view(v.Name).ID, true
		}
		land[v.ID].id = id
	}
	if grew {
		w.interned()
	}
	for i := range land {
		l := &land[i]
		mv, vc := m.views[l.id], &w.views[l.id]
		l.arrival = mv.firstArrival + vc.arrivals.len()
		l.read = mv.firstRead + vc.reads.len()
		cum := vc.readCum.rows()
		l.entry = cum[len(cum)-1]
	}

	// Journeys and their hops. A segment's hop arena is its journeys' hops
	// laid end to end, so the hops copy across in one run and each journey
	// takes the next len(Hops) of them.
	jOff := m.firstJourney + w.journeys.len()
	hops, moved := w.hops.add(st.hopArena, &wr)
	if moved {
		w.repointHops()
	}
	for i := range hops {
		hop := &hops[i]
		l := &land[hop.Comp]
		hop.Comp = l.id
		hop.Arrival += l.arrival
		if hop.ReadEvent >= 0 {
			hop.ReadEvent += l.read
		}
	}
	journeys, _ := w.journeys.add(st.Journeys, &wr)
	pos := 0
	for i := range journeys {
		end := pos + len(journeys[i].Hops)
		journeys[i].Hops = hops[pos:end:end]
		pos = end
	}

	if w.appendHook != nil {
		w.appendHook()
	}

	for _, v := range st.views {
		l := &land[v.ID]
		vc := &w.views[l.id]
		arrivals, _ := vc.arrivals.add(v.Arrivals, &wr)
		for i := range arrivals {
			a := &arrivals[i]
			if a.From >= 0 {
				a.From = land[a.From].id
			}
			if a.Journey >= 0 {
				a.Journey += jOff
			}
		}
		reads, _ := vc.reads.add(v.Reads, &wr)
		vc.readCum.reserve(len(reads), &wr)
		entries := l.entry
		for i := range reads {
			reads[i].FirstEntry = entries
			entries += reads[i].N
			vc.readCum.buf = append(vc.readCum.buf, entries)
		}
		wr.Appended += int64(len(reads))
		vc.arrivalTimes.add(v.pidx.arrivalTimes, &wr)
		vc.drainTimes.add(v.pidx.drainTimes, &wr)
		vc.readTimes.add(v.pidx.readTimes, &wr)
		m.moments[l.id].Merge(st.moments[v.ID])
	}
	w.runs.add(st.latRuns, &wr)
	addRecon(&m.recon, st.recon, +1)
	addIntegrity(&m.Trace.Integrity, st.Trace.Integrity, +1)
	m.recCount += st.recCount
	return wr
}

// repointHops re-slices every live journey's Hops after the hop column
// moved: the live hops are the live journeys' hops laid end to end.
func (w *window) repointHops() {
	pos := w.hops.head
	js := w.journeys.rows()
	for i := range js {
		end := pos + len(js[i].Hops)
		js[i].Hops = w.hops.buf[pos:end:end]
		pos = end
	}
}

// drop removes the window's oldest segment, whose store st must be: so
// many leading rows of every column, and its share of every summary. It
// returns the rows it took out.
func (w *window) drop(st *Store) (wr WindowRows) {
	m := &w.st
	nj := len(st.Journeys)
	w.journeys.drop(nj, &wr)
	m.firstJourney += nj
	w.hops.drop(len(st.hopArena), &wr)
	for _, v := range st.views {
		id := m.byName[v.Name]
		mv, vc := m.views[id], &w.views[id]
		na, nr := len(v.Arrivals), len(v.Reads)
		vc.arrivals.drop(na, &wr)
		mv.firstArrival += na
		vc.reads.drop(nr, &wr)
		mv.firstRead += nr
		vc.readCum.drop(nr, &wr)
		vc.arrivalTimes.drop(na, &wr)
		vc.drainTimes.drop(len(v.pidx.drainTimes), &wr)
		vc.readTimes.drop(nr, &wr)
		m.moments[id].Unmerge(st.moments[v.ID])
	}
	w.runs.drop(len(st.latRuns), &wr)
	addRecon(&m.recon, st.recon, -1)
	addIntegrity(&m.Trace.Integrity, st.Trace.Integrity, -1)
	m.recCount -= st.recCount
	return wr
}

// publish points the store's exported tables at the live rows and starts a
// new generation: everything derived from the previous window's rows and
// not maintained by append and drop is forgotten here.
func (w *window) publish(traceEnd simtime.Time) *Store {
	m := &w.st
	m.Journeys = w.journeys.rows()
	m.hopArena = w.hops.rows()
	m.latRuns = w.runs.rows()
	for id, mv := range m.views {
		vc := &w.views[id]
		mv.Arrivals = vc.arrivals.rows()
		mv.Reads = vc.reads.rows()
		mv.pidx = periodIndex{
			arrivalTimes: vc.arrivalTimes.rows(),
			drainTimes:   vc.drainTimes.rows(),
			readTimes:    vc.readTimes.rows(),
			readCum:      vc.readCum.rows(),
		}
		mv.tl = nil
		if w.ix.QueueThreshold > 0 {
			m.timelineOf(mv).lastLEFor(w.ix.QueueThreshold)
		}
	}
	m.flowIdx = nil
	for thr := range m.indexes {
		if thr != w.ix.QueueThreshold {
			delete(m.indexes, thr)
		}
	}
	m.traceEnd = traceEnd
	m.gen++
	return m
}

// Generation counts the windows a stream's window store has been brought
// up to date for; it is zero for every other store. The window store is
// lent, not given: it is the same *Store every window, and its rows are
// only meaningful until the stream assembles the next one. A holder that
// kept the pointer can tell it has gone stale by comparing the generation
// it saw with the current one.
func (s *Store) Generation() uint64 { return s.gen }

// add books o's rows into r.
func (r *WindowRows) add(o WindowRows) {
	r.Appended += o.Appended
	r.Dropped += o.Dropped
	r.Moved += o.Moved
}

// addRecon adds sign times src to dst.
func addRecon(dst *ReconStats, src ReconStats, sign int) {
	dst.Matched += sign * src.Matched
	dst.Reordered += sign * src.Reordered
	dst.LookaheadFix += sign * src.LookaheadFix
	dst.Unmatched += sign * src.Unmatched
	dst.DupCollisions += sign * src.DupCollisions
	dst.Quarantined += sign * src.Quarantined
}

// addIntegrity adds sign times src to dst.
func addIntegrity(dst *collector.Integrity, src collector.Integrity, sign int) {
	dst.DecodeSkipped += sign * src.DecodeSkipped
	dst.DecodeResyncs += sign * src.DecodeResyncs
	dst.Resorted += sign * src.Resorted
	dst.DroppedRecords += sign * src.DroppedRecords
	dst.TruncatedRecords += sign * src.TruncatedRecords
}

// Package tracestore turns a collected record stream into per-NF views and
// reconstructed per-packet journeys (paper §5, "offline diagnosis" input).
//
// The store never sees simulator ground truth. It works from exactly what
// the collector recorded: batch timestamps, batch sizes, IPIDs, and
// five-tuples at egress. Journeys are reconstructed by matching IPIDs
// across adjacent components using the paper's three side channels — the
// paths of packets (only immediate upstreams are candidates), the timing of
// packets (a delay bound), and the order of packets (FIFO queues).
//
// Component names are interned into dense CompID handles at Build; every
// hot structure (views, write destinations, arrival origins, journey hops)
// carries CompIDs and is indexed by slice, with names materialized only at
// report boundaries.
package tracestore

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"microscope/internal/collector"
	"microscope/internal/obs"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/stats"
)

// Entry is one packet-level event extracted from a batch record: one packet
// read, written, or delivered by a component. It is 16 bytes: build fills
// one per packet per direction, the most numerous scratch rows.
type Entry struct {
	At simtime.Time
	// Ref is, for a read entry, the index of its batch in the component's
	// Reads; for a write entry, the packet's index in the destination's
	// Arrivals; unused for a deliver entry.
	Ref  int32
	IPID uint16
}

// ReadEvent is one batch read: the unit of the queuing-period signal.
type ReadEvent struct {
	At simtime.Time
	N  int
	// Drained reports that this read left the queue empty (batch smaller
	// than MaxBatch, §5).
	Drained bool
	// FirstEntry indexes the first packet of this batch in the
	// component's flattened read entries (stream-absolute, like every row
	// reference; see reconstruct.go). It counts the packets the
	// component's earlier reads dequeued, so a queuing period's n_p is the
	// difference of two (CompView.readBefore).
	FirstEntry int
}

// Arrival is one packet arriving at a component's input queue (a packet
// inside an upstream write batch).
type Arrival struct {
	At      simtime.Time
	Journey int    // journey reference (Store.JourneyAt), -1 until reconstruction links it
	From    CompID // writing component
	IPID    uint16
	// Quarantined marks an arrival whose dequeue match was ambiguous
	// (duplicate-IPID collision the side channels could not break);
	// journeys through it are flagged rather than trusted.
	Quarantined bool
	// (Fields are ordered so that a row is 24 bytes: arrivals are the
	// most numerous rows a store and a stream's window hold.)
}

// CompView is the per-component index the diagnosis consumes.
type CompView struct {
	ID   CompID
	Name string
	Meta *collector.ComponentMeta

	// Reads are batch read events in time order.
	Reads []ReadEvent
	// Arrivals are packets entering this component's queue, in enqueue
	// order as reconstructed (time-merged upstream writes).
	Arrivals []Arrival

	// firstArrival and firstRead are the stream-absolute indices of
	// Arrivals[0] and Reads[0]: what JourneyHop.Arrival/ReadEvent and a
	// QueuingPeriod's arrival range count from. Zero except in a stream's
	// window store, where rows leave from the front (window.go).
	firstArrival, firstRead int

	// pidx holds the drain times queuing-period queries search: a span of
	// the store's drains slab, filled by summarize, or of a window store's
	// column.
	pidx periodIndex
	// tl caches the reconstructed queue-length timeline (§7 threshold
	// periods).
	tl *qlenTimeline
}

// Store indexes a trace and holds the reconstructed journeys.
type Store struct {
	// Trace is the trace the store was made from: its meta and integrity,
	// and its records only when they were held as records (Build; not
	// Load, nor a stream's segment or window store).
	Trace    *collector.Trace
	MaxBatch int

	// The interner: names[id] and views[id] are indexed by CompID, byName
	// is the reverse map. peaks/kinds/downs are the per-component meta
	// tables the hot paths read by ID instead of rescanning Meta.
	byName map[string]CompID //mslint:allow compid this IS the interner: the one sanctioned name-to-CompID map
	// compMemo and queueMemo cache build's record lookups in front of
	// byName: a record's component, and a write record's queue to the
	// component consuming it.
	compMemo, queueMemo nameMemo
	names               []string
	views               []*CompView
	peaks               []simtime.Rate
	kinds               []string
	downs               [][]CompID
	srcID               CompID

	// nDecl is how many leading views are the declared components: the
	// part of the interner a recycled segment store keeps. metaFor is the
	// view count peaks/kinds/downs were built for.
	nDecl   int
	metaFor int

	// Journeys are the reconstructed packet traces, in source-emission
	// order. Every Journey's Hops slice is a span of the shared hopArena.
	Journeys []Journey
	hopArena []JourneyHop
	// firstJourney is the stream-absolute index of Journeys[0], what
	// Arrival.Journey counts from (zero except in a window store).
	firstJourney int
	// gen counts the windows a stream's window store has been brought up
	// to date for (Generation); zero for every other store.
	gen uint64

	// The retained slabs: every view's Arrivals, Reads and drain times
	// are exact-size spans of these, so a store costs a handful of
	// allocations whatever its component count, and a recycled segment
	// store (Stream) refills them in place.
	arrivals []Arrival
	reads    []ReadEvent
	drains   []simtime.Time
	// traceBuf is Trace's storage for segment stores; its Records are the
	// segment's run only while derive runs.
	traceBuf collector.Trace
	// recCount is the number of records the store was made from (the
	// Health record count): set by build, and summed by a stream's window
	// store, which holds no records of its own.
	recCount int

	recon ReconStats

	// The summaries the diagnosis reads, frozen by summarize (a window
	// store keeps its own by add and drop, window.go): moments
	// are the queue-delay moments by CompID, latRun the delivered
	// latencies ascending, latRuns the ascending runs the latency
	// percentile is selected from — latRun alone, or a window store's
	// segments' runs — and traceEnd the latest hop departure.
	moments  []stats.Moments
	latRun   []float64
	latRuns  [][]float64
	traceEnd simtime.Time

	// mu guards the §7 timelines while WarmQueueThreshold builds them for
	// readers on many goroutines. They are immutable once built, so
	// readers never need the lock.
	mu sync.Mutex
}

// ReconStats summarizes how reconstruction went.
type ReconStats struct {
	Matched      int // queue matches resolved via unique head
	Reordered    int // resolved via bounded out-of-order search
	LookaheadFix int // resolved via the order side channel (lookahead)
	Unmatched    int // dequeue entries left unmatched
	// DupCollisions counts duplicate-IPID matches the side channels
	// could not disambiguate (the pick is a guess).
	DupCollisions int
	// Quarantined counts journeys routed through an ambiguous match;
	// they are built but flagged untrustworthy.
	Quarantined int
}

// Health is the store's trace-quality summary: what the trace is known to
// have lost before reconstruction (decode skips, dropped records) plus how
// reconstruction coped. The diagnosis reports it alongside culprits so an
// operator sees confidence next to conclusions.
type Health struct {
	// Records is the record count reconstruction worked from.
	Records int
	// Journeys is how many packet journeys were built.
	Journeys int
	// Integrity carries the trace's known damage.
	Integrity collector.Integrity
	// Recon carries the matching counters.
	Recon ReconStats
}

// UnmatchedFrac is the fraction of dequeue entries left unmatched.
func (h Health) UnmatchedFrac() float64 {
	total := h.Recon.Matched + h.Recon.Reordered + h.Recon.LookaheadFix + h.Recon.Unmatched
	if total == 0 {
		return 0
	}
	return float64(h.Recon.Unmatched) / float64(total)
}

// RecordLossFrac estimates the fraction of records lost before
// reconstruction.
func (h Health) RecordLossFrac() float64 {
	return h.Integrity.LossFrac(h.Records)
}

// Degraded reports whether diagnosis should distrust vanished records: the
// trace is known-damaged, or reconstruction left too many dequeues
// unmatched for missing records to be attributable to real packet loss.
func (h Health) Degraded() bool {
	return h.Integrity.Damaged() || h.UnmatchedFrac() > 0.02
}

// String renders a one-line health summary.
func (h Health) String() string { return string(h.AppendString(nil)) }

// AppendString appends String's text to dst. It is on the per-window path
// of the serving tier (every window's report and fingerprint carry the
// line), so it formats with strconv rather than fmt.
func (h Health) AppendString(dst []byte) []byte {
	dst = append(dst, "health: "...)
	dst = strconv.AppendInt(dst, int64(h.Records), 10)
	dst = append(dst, " records, "...)
	dst = strconv.AppendInt(dst, int64(h.Journeys), 10)
	dst = append(dst, " journeys, "...)
	dst = strconv.AppendFloat(dst, h.UnmatchedFrac()*100, 'f', 2, 64)
	dst = append(dst, "% unmatched"...)
	if h.Integrity.Damaged() {
		dst = append(dst, ", damaged ("...)
		dst = strconv.AppendInt(dst, int64(h.Integrity.DroppedRecords), 10)
		dst = append(dst, " dropped, "...)
		dst = strconv.AppendInt(dst, int64(h.Integrity.DecodeSkipped), 10)
		dst = append(dst, " skipped, "...)
		dst = strconv.AppendInt(dst, int64(h.Integrity.TruncatedRecords), 10)
		dst = append(dst, " truncated)"...)
	}
	if h.Recon.Quarantined > 0 {
		dst = append(dst, ", "...)
		dst = strconv.AppendInt(dst, int64(h.Recon.Quarantined), 10)
		dst = append(dst, " journeys quarantined"...)
	}
	if h.Degraded() {
		dst = append(dst, " [degraded]"...)
	}
	return dst
}

// view interns name, creating its (empty) per-component view on first use.
func (s *Store) view(name string) *CompView {
	if id, ok := s.byName[name]; ok {
		return s.views[id]
	}
	id := CompID(len(s.views))
	v := &CompView{ID: id, Name: name, Meta: s.Trace.Meta.Component(name)}
	s.byName[name] = id
	s.names = append(s.names, name)
	s.views = append(s.views, v)
	return v
}

// Build makes the store of a trace: it indexes the records, reconstructs
// the packet journeys and freezes the diagnosis summaries. Records out of
// time order are sorted into a copy first; the caller's trace is left
// untouched.
func Build(tr *collector.Trace) *Store {
	s := &Store{}
	s.derive(sortedTrace(tr), &scratch{})
	return s
}

// derive makes s the store of tr, whose records must be in time order:
// build, reconstruct, summarize. It is the one way a store is made from
// records — the cold Build (zero Store, fresh scratch) and the stream's
// seal (the segment's recycled Store, the stream's long-lived scratch);
// buildFrames runs the same steps over a trace file's frames — and a
// recycled s must have been made for the same Meta. The build-only tables
// live in sc alone, so when derive returns nothing of s points into them
// and the next use may overwrite them.
func (s *Store) derive(tr *collector.Trace, sc *scratch) {
	s.build(tr, sc)
	s.reconstruct(sc)
	s.summarize(sc)
}

// build indexes tr through sc. Two passes over the records: the first
// (count) interns components and counts what every table will hold, the
// second (fill) writes the tables carved at exactly that size by layout —
// no table is ever grown. buildFrames runs the same passes over a trace
// file's frames.
func (s *Store) build(tr *collector.Trace, sc *scratch) {
	s.begin(tr, sc)
	recs := tr.Records
	sc.recComp = resize(sc.recComp, len(recs))
	sc.recDest = resize(sc.recDest, len(recs))
	for ri := range recs {
		sc.recComp[ri], sc.recDest[ri] = s.count(&recs[ri], len(recs[ri].IPIDs), sc)
	}
	s.layout(sc)
	s.fill(recs, sc.recComp, sc.recDest, sc)
}

// begin readies s to index the records of tr, which it keeps as the
// store's Trace: the interner holds the declared components, and nothing
// is counted yet.
func (s *Store) begin(tr *collector.Trace, sc *scratch) {
	s.Trace = tr
	s.MaxBatch = tr.Meta.MaxBatch
	if s.MaxBatch <= 0 {
		s.MaxBatch = 32
	}
	if s.byName == nil {
		s.byName = make(map[string]CompID, len(tr.Meta.Components)+1) //mslint:allow compid this IS the interner: the one sanctioned name-to-CompID map
		s.srcID = NoComp
		// Ensure every declared component has a view (and a stable CompID)
		// even if silent; undeclared components that only appear in records
		// are interned in first-appearance record order.
		for i := range tr.Meta.Components {
			s.view(tr.Meta.Components[i].Name)
		}
		s.nDecl = len(s.views)
	} else {
		s.recycle()
	}
	s.recCount = 0
	sc.views = sc.views[:0]
}

// count is the first pass's step for one record carrying n packets: it
// interns the record's component and, for a write, its destination, which
// it returns for fill, and counts the rows the record will fill. It reads
// no IPIDs or tuples.
func (s *Store) count(r *collector.BatchRecord, n int, sc *scratch) (id, dest CompID) {
	s.recCount++
	switch r.Dir {
	case collector.DirRead:
		id = s.compID(r.Comp)
		c := sc.view(id)
		c.nReads++
		c.nReadPk += n
	case collector.DirWrite:
		id, dest = s.compID(r.Comp), s.queueID(r.Queue)
		sc.view(id).nWritePk += n
		sc.view(dest).nArrivals += n
	case collector.DirDeliver:
		id = s.compID(r.Comp)
		sc.view(id).nDeliverPk += n
	}
	return id, dest
}

// layout ends the count pass: it interns the edge endpoints, freezes the
// meta tables and carves every table at the size counted.
func (s *Store) layout(sc *scratch) {
	// Intern edge endpoints too, so the downstream adjacency can name
	// declared-but-silent neighbours, then freeze the per-component meta
	// tables the diagnosis reads by ID.
	for _, e := range s.Trace.Meta.Edges {
		s.view(e.From)
		s.view(e.To)
	}
	s.buildMetaTables()

	var nReads, nArr, nEntries, nWritePk, nDeliverPk int
	for _, v := range s.views {
		c := sc.view(v.ID)
		nReads += c.nReads
		nArr += c.nArrivals
		nEntries += c.nReadPk + c.nWritePk + c.nDeliverPk
		nWritePk += c.nWritePk
		nDeliverPk += c.nDeliverPk
	}
	s.reads = resize(s.reads, nReads)
	s.arrivals = resize(s.arrivals, nArr)
	sc.entries = resize(sc.entries, nEntries)
	sc.dests = resize(sc.dests, nWritePk)
	sc.tuples = resize(sc.tuples, nDeliverPk)
	reads, arrivals, entries, dests, tuples := s.reads, s.arrivals, sc.entries, sc.dests, sc.tuples
	for _, v := range s.views {
		c := &sc.views[v.ID]
		v.Reads, reads = carve(reads, c.nReads)
		v.Arrivals, arrivals = carve(arrivals, c.nArrivals)
		c.reads, entries = carve(entries, c.nReadPk)
		c.writes, entries = carve(entries, c.nWritePk)
		c.delivers, entries = carve(entries, c.nDeliverPk)
		c.dests, dests = carve(dests, c.nWritePk)
		c.tuples, tuples = carve(tuples, c.nDeliverPk)
	}
}

// fill is the second pass over recs, whose components and write
// destinations count returned in comp and dest: it writes each record's
// rows by index into the spans layout carved. The records must be the ones
// counted, in the same order.
func (s *Store) fill(recs []collector.BatchRecord, comp, dest []CompID, sc *scratch) {
	for ri := range recs {
		r := &recs[ri]
		n := len(r.IPIDs)
		switch r.Dir {
		case collector.DirRead:
			v, c := s.views[comp[ri]], &sc.views[comp[ri]]
			ev, e0 := int32(len(v.Reads)), len(c.reads)
			v.Reads = append(v.Reads, ReadEvent{
				At:         r.At,
				N:          n,
				Drained:    n < s.MaxBatch,
				FirstEntry: e0,
			})
			c.reads = c.reads[:e0+n]
			for i, id := range r.IPIDs {
				c.reads[e0+i] = Entry{At: r.At, Ref: ev, IPID: id}
			}
		case collector.DirWrite:
			from := comp[ri]
			c, dv := &sc.views[from], s.views[dest[ri]]
			a0, w0 := len(dv.Arrivals), len(c.writes)
			// Arrival lists merge upstream writes per destination in
			// (time, record order) — record order is already time order
			// within the trace.
			arrivals := dv.Arrivals[a0 : a0+n]
			writes, dests := c.writes[w0:w0+n], c.dests[w0:w0+n]
			dv.Arrivals, c.writes, c.dests = dv.Arrivals[:a0+n], c.writes[:w0+n], c.dests[:w0+n]
			for i, id := range r.IPIDs {
				writes[i] = Entry{At: r.At, Ref: int32(a0 + i), IPID: id}
				dests[i] = dv.ID
				arrivals[i] = Arrival{At: r.At, IPID: id, From: from, Journey: -1}
			}
		case collector.DirDeliver:
			c := &sc.views[comp[ri]]
			e0 := len(c.delivers)
			c.delivers, c.tuples = c.delivers[:e0+n], c.tuples[:e0+n]
			for i, id := range r.IPIDs {
				c.delivers[e0+i] = Entry{At: r.At, IPID: id}
				// A damaged record can carry fewer five-tuples than
				// IPIDs; pad with the zero tuple rather than panic.
				var tup packet.FiveTuple
				if i < len(r.Tuples) {
					tup = r.Tuples[i]
				}
				c.tuples[e0+i] = tup
			}
		}
	}
}

// recycle prepares a store that already served a build (of the same Meta)
// for the next one: the interner keeps its declared prefix — and with it
// the views and, while no other component shows up, the meta tables — and
// everything derived from records is dropped. Views past the prefix are
// re-interned in record order, exactly as a fresh store would.
func (s *Store) recycle() {
	for _, name := range s.names[s.nDecl:] {
		delete(s.byName, name)
	}
	s.compMemo.forget(CompID(s.nDecl))
	s.queueMemo.forget(CompID(s.nDecl))
	s.names = s.names[:s.nDecl]
	s.views = s.views[:s.nDecl]
	for _, v := range s.views {
		*v = CompView{ID: v.ID, Name: v.Name, Meta: v.Meta}
	}
	s.Journeys = s.Journeys[:0]
	s.hopArena = s.hopArena[:0]
	s.recon = ReconStats{}
}

// buildMetaTables freezes peaks/kinds/downs/srcID for the interned
// components. A recycled store that again holds only the declared
// components keeps the tables it has.
func (s *Store) buildMetaTables() {
	n := len(s.views)
	if s.metaFor == n && n == s.nDecl {
		return
	}
	s.metaFor = n
	s.peaks = make([]simtime.Rate, n)
	s.kinds = make([]string, n)
	s.downs = make([][]CompID, n)
	for id, v := range s.views {
		s.kinds[id] = v.Name
		if v.Meta != nil {
			s.peaks[id] = v.Meta.PeakRate
			if v.Meta.Kind != "" {
				s.kinds[id] = v.Meta.Kind
			}
		}
	}
	for _, e := range s.Trace.Meta.Edges {
		from, to := s.byName[e.From], s.byName[e.To]
		s.downs[from] = append(s.downs[from], to)
	}
	s.srcID = NoComp
	if id, ok := s.byName[collector.SourceName]; ok {
		s.srcID = id
	}
}

// sortedTrace returns tr unchanged when its records are already in time
// order, or a time-sorted shallow copy when they are not (late ring drains,
// reordered delivery). Indexing and the arrivals merge both depend on
// record order being time order, so an unsorted trace must never reach
// them; the caller's trace is left untouched.
func sortedTrace(tr *collector.Trace) *collector.Trace {
	if collector.Inversions(tr.Records) == 0 {
		return tr
	}
	cp := *tr
	cp.Records = slices.Clone(tr.Records)
	cp.Integrity.Resorted += collector.SortByTime(cp.Records)
	return &cp
}

// View returns the per-component index, or nil.
func (s *Store) View(name string) *CompView { return s.ViewID(s.CompIDOf(name)) }

// Components returns component names in CompID order (declared components
// first, then first appearance in the record stream).
func (s *Store) Components() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// ReconStats returns reconstruction accounting.
func (s *Store) ReconStats() ReconStats { return s.recon }

// Health returns the merged trace-quality summary.
func (s *Store) Health() Health {
	return Health{
		Records:   s.recCount,
		Journeys:  len(s.Journeys),
		Integrity: s.Trace.Integrity,
		Recon:     s.recon,
	}
}

// PeakRate returns r_i for a component (0 for the source or unknown).
func (s *Store) PeakRate(name string) simtime.Rate {
	return s.PeakRateID(s.CompIDOf(name))
}

// KindOf returns the component kind, defaulting to the name.
func (s *Store) KindOf(name string) string {
	if id := s.CompIDOf(name); id != NoComp {
		return s.kinds[id]
	}
	return name
}

// HopAt returns the named component's hop of a journey, or nil. Hop
// components are interned; this is the string-keyed convenience wrapper.
func (s *Store) HopAt(j *Journey, comp string) *JourneyHop {
	return j.HopAtID(s.CompIDOf(comp))
}

// LastCompName returns the name of the last component a journey was
// observed at ("" for an empty journey).
func (s *Store) LastCompName(j *Journey) string {
	return s.CompName(j.LastCompID())
}

// RecordObs publishes the store's reconstruction outcome on reg. The
// metrics are gauges, not counters, so publishing the same store twice (or
// several window stores in sequence, as the online monitor does) stays
// idempotent: the gauges always describe the most recent store. A nil
// registry is a no-op.
func (s *Store) RecordObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h := s.Health()
	reg.Gauge("microscope_store_records").Set(int64(h.Records))
	reg.Gauge("microscope_store_journeys").Set(int64(h.Journeys))
	reg.Gauge("microscope_store_components").Set(int64(len(s.names)))
	reg.Gauge("microscope_store_matched").Set(int64(h.Recon.Matched))
	reg.Gauge("microscope_store_reordered").Set(int64(h.Recon.Reordered))
	reg.Gauge("microscope_store_lookahead_fixed").Set(int64(h.Recon.LookaheadFix))
	reg.Gauge("microscope_store_unmatched").Set(int64(h.Recon.Unmatched))
	reg.Gauge("microscope_store_quarantined").Set(int64(h.Recon.Quarantined))
	var degraded int64
	if h.Degraded() {
		degraded = 1
	}
	reg.Gauge("microscope_store_degraded").Set(degraded)
}

// String renders a short summary.
func (s *Store) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tracestore: %d records, %d journeys (%d matched, %d reordered, %d lookahead, %d unmatched)",
		s.recCount, len(s.Journeys),
		s.recon.Matched, s.recon.Reordered, s.recon.LookaheadFix, s.recon.Unmatched)
	return b.String()
}

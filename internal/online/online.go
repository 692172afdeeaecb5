// Package online runs Microscope continuously: the collector's record
// stream is consumed in windows, each window is reconstructed and diagnosed
// like a small offline trace, and significant culprits surface as alerts.
// The paper's tool is offline (§5); this is the thin streaming shell an
// operator deploys so that "run Microscope over the timeframe" (§4.4)
// happens on its own. Every window runs on one retained stream
// (pipeline.StreamState): each record is sealed once into an epoch
// segment, expired segments are evicted wholesale, the diagnosis memo is
// carried, and each window's report is byte-identical to a cold rebuild of
// the same window (DESIGN.md §11).
package online

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/obs"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// Config tunes the monitor.
type Config struct {
	// Window is the slide: the flush cadence, how far each window's end
	// moves past the last one's (default 100 ms). Each window analyses
	// Window + Overlap of the stream, 120 ms at the defaults. An alert
	// repeating an already-alerted onset of the same culprit within one
	// Window is held off.
	Window simtime.Duration
	// Overlap is carried from the previous window so queuing periods
	// that straddle the boundary stay intact (default 20 ms). Must be
	// >= 0; New panics on a negative value.
	Overlap simtime.Duration
	// MaxLookahead bounds how far beyond the current watermark a record's
	// timestamp may plausibly land: anything further is a corrupt
	// timestamp (a truncated or bit-flipped record that survived decode
	// resync) and is dropped and counted, because advancing the watermark
	// to it would fast-forward the flush boundary and silently discard
	// every genuine record behind it as late. Default 4096 windows, the
	// value every spec lowers; New panics on a negative value. After
	// resyncAfter (8) beyond-horizon records in a row, each within
	// MaxLookahead of the one before, the monitor concludes the stream
	// genuinely jumped and resyncs (noteImplausible).
	//
	// It is the one field no spec value sets apart from the slide, kept
	// for the chaos soak: its corrupt timestamps land only a few windows
	// ahead, so the soak tightens the horizon to 8 windows to catch them
	// and keep each one's watermark jump inside its comparison margin. A
	// deployment keeps 4096: at 8, any silence longer than 8 slides —
	// such as a drain between bursts — would be taken for a jump.
	MaxLookahead simtime.Duration
	// MinScore is the alert threshold on a window's merged culprit
	// score, in packets (default 100).
	MinScore float64
	// Diagnosis passes through engine knobs (victim percentile, the
	// per-victim fan-out's Workers, etc.). Its MaxVictims caps diagnosis
	// work per window (default 200). Its ContainPanics is ignored:
	// Resilience.ContainPanics sets it. Its ChaosHook, when non-nil, also
	// fires with scope "window:<n>" before each window's analysis; the
	// chaos harness injects deterministic faults through it.
	Diagnosis core.Config
	// Obs receives monitor metrics: ingest and alert counters plus
	// watermark gauges, and is pushed into the per-window pipelines.
	// nil falls back to the process default registry.
	Obs *obs.Registry
	// Resilience arms the overload defenses: bounded ingest with a shed
	// policy, the degradation ladder, the per-window deadline and memory
	// watermarks, and panic containment. The zero value keeps the
	// pre-resilience behaviour (unbounded buffering, full diagnosis,
	// panics propagate).
	Resilience resilience.Config
	// Degrade is the least degraded rung a window runs at: each window runs
	// at the more degraded of it and the rung the ladder picks. It carries
	// the spec's stages.run; the zero value, Full, leaves every window to
	// the ladder.
	Degrade resilience.Level
	// OnWindow, when non-nil, observes every successfully diagnosed
	// window: the flush boundary and the full pipeline Result, before
	// alert merging. Called synchronously from the feed goroutine — the
	// serving tier captures per-window reports (and their fingerprints)
	// here. Skipped and quarantined windows never fire it; they produce
	// no Result. res.Store is the stream's window store, lent for the
	// duration of the call (pipeline.Result.Store): the next window
	// overwrites it in place, so the callback must take what it wants to
	// keep and not the pointer.
	OnWindow func(end simtime.Time, res *pipeline.Result)
}

// Monitor defaults for the Config knobs left zero.
const (
	// DefaultWindow is the flush cadence.
	DefaultWindow = 100 * simtime.Millisecond
	// DefaultOverlap is the tail carried into the next window.
	DefaultOverlap = 20 * simtime.Millisecond
	// DefaultLookaheadWindows is MaxLookahead's default, in windows.
	DefaultLookaheadWindows = 4096
	// DefaultMinScore is the alert threshold, in packets.
	DefaultMinScore = 100
)

// resyncAfter is the watermark-jump recovery run length: how many
// consecutive, mutually consistent beyond-horizon records prove a genuine
// stream gap.
const resyncAfter = 8

func (c *Config) setDefaults() {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.Overlap == 0 {
		c.Overlap = DefaultOverlap
	}
	if c.MaxLookahead == 0 {
		c.MaxLookahead = DefaultLookaheadWindows * c.Window
	}
	if c.MinScore == 0 {
		c.MinScore = DefaultMinScore
	}
	if c.Diagnosis.MaxVictims == 0 {
		c.Diagnosis.MaxVictims = 200
	}
}

// Alert is one significant culprit surfaced by a window's diagnosis.
type Alert struct {
	// WindowEnd is the analysis boundary that produced the alert.
	WindowEnd simtime.Time
	// Comp / Kind identify the culprit.
	Comp string
	Kind core.CulpritKind
	// Score is the merged blame across the window's victims.
	Score float64
	// Victims is how many diagnosed victims implicated this culprit.
	Victims int
	// Onset is the earliest culprit behaviour time.
	Onset simtime.Time
	// Health is the trace-quality summary of the window that raised the
	// alert: an operator reads confidence next to the conclusion.
	Health tracestore.Health
}

// String implements fmt.Stringer.
func (a Alert) String() string {
	return fmt.Sprintf("[%v] %s/%s score=%.0f victims=%d onset=%v",
		a.WindowEnd, a.Comp, a.Kind, a.Score, a.Victims, a.Onset)
}

// Monitor consumes records incrementally. Not safe for concurrent use; a
// collector drain loop feeds it from one goroutine.
type Monitor struct {
	cfg Config

	// stream is the retained window index. It is advanced on every flush —
	// including skipped rungs and empty windows — so its watermark and
	// eviction horizon track the monitor's.
	stream *pipeline.StreamState

	// pending holds, in time order, the accepted records the stream has not
	// sealed: the open window's, plus — after a window whose ingest never
	// ran — that window's unsealed overlap tail. Each flush hands it to the
	// stream whole and keeps only what the stream did not seal. It is the
	// only copy of a record: the stream seals from it in place and keeps no
	// records, so clearing a slot releases the record's payload.
	pending []collector.BatchRecord
	// held is how many records the stream has sealed in the open window's
	// span [nextFlush−Window−Overlap, nextFlush]: held+len(pending) is the
	// window's record count, what the ladder and RingCapacity bound.
	held int
	// mem samples the heap against the configured watermarks.
	mem       *resilience.MemWatcher
	nextFlush simtime.Time
	// flushedTo is the end of the last flushed or shed window; records at
	// or before it (closed) are too late to analyse.
	flushedTo simtime.Time
	// ranTo is the end of the last window flushWindow took (diagnosed,
	// skipped or quarantined): a closed record after it belongs to a window
	// ShedDropOldest abandoned, and is shed rather than late.
	ranTo simtime.Time
	// lastAlert remembers alerted onsets per culprit for hold-off.
	lastAlert     map[alertKey]simtime.Time
	lastWatermark simtime.Time
	// implausibleAt / implausibleRun track the current run of
	// beyond-horizon timestamps for resyncAfter: implausibleAt is the most
	// recent one, implausibleRun how many mutually-consistent ones in a
	// row. Any accepted in-horizon record resets the run.
	implausibleAt  simtime.Time
	implausibleRun int
	// lastDegradation is the ladder rung the most recent window ran at.
	lastDegradation resilience.Level

	stats Stats

	// Observability handles, resolved once at New (nil = disabled).
	obsRecords      *obs.Counter
	obsWindows      *obs.Counter
	obsVictims      *obs.Counter
	obsAlerts       *obs.Counter
	obsLateAccepted *obs.Counter
	obsLateDropped  *obs.Counter
	obsWatermark    *obs.Gauge
	obsLag          *obs.Gauge
	obsPending      *obs.Gauge
	obsRecordsShed  *obs.Counter
	obsWindowsShed  *obs.Counter
	obsSkipped      *obs.Counter
	obsQuarantined  *obs.Counter
	obsDeadline     *obs.Counter
	obsDegradation  *obs.Gauge
	obsOccupancy    *obs.Gauge
	obsImplausible  *obs.Counter
	obsResyncs      *obs.Counter
}

type alertKey struct {
	comp string
	kind core.CulpritKind
}

// Stats counts monitor activity.
type Stats struct {
	Windows, Records, Victims, Alerts int
	// LateAccepted counts records that arrived out of time order but
	// still inside the open window and were re-sorted into place.
	LateAccepted int
	// LateDropped counts records that arrived after their window was
	// already flushed and had to be discarded.
	LateDropped int
	// Unmatched and Quarantined are the stream's seal-time
	// reconstruction totals: each record is reconstructed once, so they
	// are monotone — across watermark resyncs too — and never count the
	// overlap twice.
	Unmatched, Quarantined int
	// RecordsShed counts records the bounded-ingest shed policy kept from
	// the stream: arrivals rejected under ShedRejectNew; under
	// ShedDropOldest, the buffered records of an abandoned window and the
	// arrivals that land in one. Records the stream already sealed are
	// never counted.
	RecordsShed int
	// WindowsShed counts windows ShedDropOldest abandoned while they held
	// buffered records.
	WindowsShed int
	// Degraded counts windows the ladder ran below Full.
	Degraded int
	// WindowsSkipped counts windows the ladder skipped outright
	// (including deadline-exceeded windows).
	WindowsSkipped int
	// WindowsQuarantined counts windows abandoned whole by panic
	// containment: the stream lived on, the window's output was discarded.
	WindowsQuarantined int
	// DeadlineExceeded counts windows cut off by the wall-clock budget.
	DeadlineExceeded int
	// ContainedPanics counts victims quarantined inside otherwise-healthy
	// windows by the worker-task containment boundary.
	ContainedPanics int
	// ImplausibleDropped counts records discarded by the watermark
	// plausibility guard: a timestamp more than MaxLookahead beyond the
	// watermark is corruption, not the future, and must not be allowed to
	// fast-forward the stream (which would lazily discard everything that
	// follows as late).
	ImplausibleDropped int
	// WatermarkResyncs counts the times the guard's recovery path fired:
	// resyncAfter mutually-consistent beyond-horizon timestamps in a row
	// proved a genuine stream gap, and the watermark jumped forward to
	// follow the stream instead of dropping it forever.
	WatermarkResyncs int
}

// New creates a monitor for a deployment described by meta. It panics on
// a negative Config.Overlap or MaxLookahead, or a window geometry the
// stream grid cannot express: a misconfiguration, not a runtime condition.
func New(meta collector.Meta, cfg Config) *Monitor {
	if cfg.Overlap < 0 || cfg.MaxLookahead < 0 {
		panic(fmt.Sprintf("online: Config.Overlap and MaxLookahead must be >= 0, got %v and %v",
			cfg.Overlap, cfg.MaxLookahead))
	}
	cfg.setDefaults()
	// The per-window pipeline reads containment from its diagnosis
	// config; the monitor's own switch sets it.
	cfg.Diagnosis.ContainPanics = cfg.Resilience.ContainPanics
	// Each window runs the shared staged pipeline with patterns skipped:
	// the monitor merges raw causes itself.
	ss, err := pipeline.NewStreamState(meta, cfg.Window, cfg.Overlap, pipeline.Config{
		Diagnosis:    cfg.Diagnosis,
		SkipPatterns: true,
		Obs:          cfg.Obs,
	})
	if err != nil {
		panic("online: " + err.Error())
	}
	m := &Monitor{
		cfg:       cfg,
		stream:    ss,
		lastAlert: make(map[alertKey]simtime.Time),
		nextFlush: simtime.Time(cfg.Window),
	}
	reg := obs.Or(cfg.Obs)
	if cfg.Resilience.MemHardBytes > 0 {
		m.mem = &resilience.MemWatcher{Limit: cfg.Resilience.MemHardBytes}
		if reg != nil {
			m.mem.Gauge = reg.Gauge("microscope_resilience_heap_bytes")
		}
	}
	if reg != nil {
		m.obsRecords = reg.Counter("microscope_monitor_records_total")
		m.obsWindows = reg.Counter("microscope_monitor_windows_total")
		m.obsVictims = reg.Counter("microscope_monitor_victims_total")
		m.obsAlerts = reg.Counter("microscope_monitor_alerts_total")
		m.obsLateAccepted = reg.Counter("microscope_monitor_late_accepted_total")
		m.obsLateDropped = reg.Counter("microscope_monitor_late_dropped_total")
		m.obsWatermark = reg.Gauge("microscope_monitor_watermark_ns")
		m.obsLag = reg.Gauge("microscope_monitor_lag_ns")
		m.obsPending = reg.Gauge("microscope_monitor_pending_records")
		m.obsRecordsShed = reg.Counter("microscope_resilience_records_shed_total")
		m.obsWindowsShed = reg.Counter("microscope_resilience_windows_shed_total")
		m.obsSkipped = reg.Counter("microscope_resilience_windows_skipped_total")
		m.obsQuarantined = reg.Counter("microscope_resilience_windows_quarantined_total")
		m.obsDeadline = reg.Counter("microscope_resilience_deadline_exceeded_total")
		m.obsDegradation = reg.Gauge("microscope_resilience_degradation_level")
		m.obsOccupancy = reg.Gauge("microscope_resilience_ring_occupancy_permille")
		m.obsImplausible = reg.Counter("microscope_resilience_implausible_records_total")
		m.obsResyncs = reg.Counter("microscope_resilience_watermark_resyncs_total")
	}
	return m
}

// Stats returns activity counters.
func (m *Monitor) Stats() Stats { return m.stats }

// LastDegradation returns the ladder rung the most recent window ran at
// (Full before the first window).
func (m *Monitor) LastDegradation() resilience.Level { return m.lastDegradation }

// Backlog returns how many accepted records await their window's seal.
func (m *Monitor) Backlog() int { return len(m.pending) }

// Feed appends records and diagnoses any windows they complete, returning
// the alerts raised. Records should arrive roughly in time order; bounded
// lateness is tolerated (late records are sorted into the open window), but
// a record older than an already-diagnosed window is dropped and counted.
// When the open window holds RingCapacity records the configured shed
// policy decides what gives: the arrival (ShedRejectNew) or the oldest
// un-diagnosed window (ShedDropOldest). Feed keeps no reference to recs.
//
// Each in-order stretch that needs none of that handling is appended to
// the pending buffer as one run (see runLen); every other record takes
// feedOne. Either way the monitor's state, counters and gauges when Feed
// returns are what feeding the records one at a time through feedOne
// leaves.
func (m *Monitor) Feed(recs []collector.BatchRecord) []Alert {
	var out []Alert
	for len(recs) > 0 {
		if n := m.runLen(recs); n > 0 {
			m.appendRun(recs[:n])
			recs = recs[n:]
			continue
		}
		out = m.feedOne(&recs[0], out)
		recs = recs[1:]
	}
	return out
}

// runLen returns how many records from the front of recs form one run:
// each is in time order behind the buffer's tail and the run so far, not
// in a closed window, inside the lookahead horizon with no resync run
// open, at or before nextFlush so it closes no window, and has room under
// RingCapacity.
// For such a record feedOne does nothing but append it, count it and move
// the watermark.
func (m *Monitor) runLen(recs []collector.BatchRecord) int {
	if m.implausibleRun != 0 {
		return 0
	}
	room := len(recs)
	if c := m.cfg.Resilience.RingCapacity; c > 0 {
		room = min(room, c-m.held-len(m.pending))
	}
	var tail simtime.Time
	if n := len(m.pending); n > 0 {
		tail = m.pending[n-1].At
	}
	wm, ahead := m.lastWatermark, m.cfg.MaxLookahead
	k := 0
	for ; k < room; k++ {
		at := recs[k].At
		if at < tail || at > m.nextFlush || m.closed(at) ||
			wm > 0 && at > wm.Add(ahead) {
			break
		}
		tail = at
		wm = max(wm, at)
	}
	return k
}

// appendRun buffers a run (see runLen) with one copy, and books it as feedOne
// would have booked its records one by one.
func (m *Monitor) appendRun(recs []collector.BatchRecord) {
	if n := len(m.pending) + len(recs); n > cap(m.pending) {
		// At least double: a long window's buffer reaches its size in a few
		// reallocations, each of which copies every record it holds.
		m.pending = slices.Grow(m.pending, n)
	}
	m.pending = append(m.pending, recs...)
	m.stats.Records += len(recs)
	m.obsRecords.Add(int64(len(recs)))
	// The run is in time order, so its last record carries its newest time.
	if at := recs[len(recs)-1].At; at > m.lastWatermark {
		m.lastWatermark = at
		m.obsWatermark.Set(int64(at))
		m.obsLag.Set(int64(at.Sub(m.flushedTo)))
	}
	m.setPending()
}

// feedOne takes one record through every check Feed applies, appending the
// alerts of any windows it closes to out.
func (m *Monitor) feedOne(r *collector.BatchRecord, out []Alert) []Alert {
	if m.closed(r.At) {
		if r.At > m.ranTo {
			m.shedArrival()
		} else {
			m.stats.LateDropped++
			m.obsLateDropped.Inc()
		}
		return out
	}
	if m.lastWatermark > 0 && r.At > m.lastWatermark.Add(m.cfg.MaxLookahead) {
		if !m.noteImplausible(r.At) {
			m.stats.ImplausibleDropped++
			m.obsImplausible.Inc()
			return out
		}
		// Resync: the run proved a genuine stream gap. Fall through and
		// accept the record; the watermark jumps with it below.
	} else if m.implausibleRun != 0 {
		// An in-horizon record breaks any beyond-horizon run: corrupt
		// timestamps interleaved with live data never accumulate into a
		// spurious resync.
		m.implausibleRun = 0
	}
	if r.At > m.lastWatermark {
		m.lastWatermark = r.At
		m.obsWatermark.Set(int64(r.At))
		// Lag: how far the newest record runs ahead of the last diagnosed
		// boundary — bounded backlog under steady state.
		m.obsLag.Set(int64(r.At.Sub(m.flushedTo)))
	}
	// Flush every window this record's timestamp closes before buffering
	// it. Flushing first (rather than after the insert, as a purely
	// unbounded consumer could) matters under RingCapacity: the flush
	// empties the buffer, so a boundary-crossing record still makes room
	// even when arrivals are being shed. Strictly greater:
	// flushWindow's cut predicate (At > end) closes a window *including*
	// records timestamped exactly at its end, so an At == nextFlush arrival
	// must be buffered first and flushed with the window it belongs to —
	// matching offline assignment.
	for r.At > m.nextFlush {
		out = append(out, m.flushWindow()...)
	}
	if m.full() {
		if m.cfg.Resilience.Policy == resilience.ShedRejectNew {
			m.shedArrival()
			return out
		}
		// ShedDropOldest: abandon whole un-diagnosed windows until there is
		// room. Each shed advances the flush boundary past the sealed
		// records it counted, so the loop strictly progresses; if the
		// arrival's own window is shed from under it, the arrival is shed
		// with it.
		for m.full() {
			m.shedOldestWindow()
		}
		if m.closed(r.At) {
			m.shedArrival()
			return out
		}
	}
	m.stats.Records++
	m.obsRecords.Inc()
	if n := len(m.pending); n > 0 && r.At < m.pending[n-1].At {
		// Late but still analysable: insert in time order.
		i := sort.Search(n, func(i int) bool { return m.pending[i].At > r.At })
		m.pending = slices.Insert(m.pending, i, *r)
		m.stats.LateAccepted++
		m.obsLateAccepted.Inc()
	} else {
		m.pending = append(m.pending, *r)
	}
	m.setPending()
	return out
}

// full reports whether the open window holds RingCapacity records, sealed
// and pending together.
func (m *Monitor) full() bool {
	c := m.cfg.Resilience.RingCapacity
	return c > 0 && m.held+len(m.pending) >= c
}

// shedArrival counts one arrival the shed policy kept from the stream.
func (m *Monitor) shedArrival() {
	m.stats.RecordsShed++
	m.obsRecordsShed.Inc()
}

// closed reports whether at falls in an already-flushed window. A window
// closes including records at its end (flushWindow cuts at At > end), and
// the stream has sealed that instant with it, so a record arriving at
// exactly flushedTo is as late as one before it.
func (m *Monitor) closed(at simtime.Time) bool {
	return at < m.flushedTo || (at == m.flushedTo && at > 0)
}

// noteImplausible books one beyond-horizon timestamp and decides whether
// it completes a resync run. A corrupt timestamp is an independent
// bit-pattern that almost never lands near another one, but a genuine
// stream gap (collector outage, transport stall longer than MaxLookahead)
// resumes with timestamps that are mutually consistent. After resyncAfter
// consecutive beyond-horizon records each within MaxLookahead of the
// previous one — bounded reordering in the resumed stream is tolerated by
// comparing absolute distance — the stream wins: the caller accepts the
// record and the watermark jumps forward with it. The run's earlier
// records were already dropped and counted; only the completing record is
// recovered, and the stream flows again from there.
func (m *Monitor) noteImplausible(at simtime.Time) (resync bool) {
	d := at.Sub(m.implausibleAt)
	if d < 0 {
		d = -d
	}
	if m.implausibleRun == 0 || d > m.cfg.MaxLookahead {
		m.implausibleRun = 1
	} else {
		m.implausibleRun++
	}
	m.implausibleAt = at
	if m.implausibleRun < resyncAfter {
		return false
	}
	m.implausibleRun = 0
	m.stats.WatermarkResyncs++
	m.obsResyncs.Inc()
	return true
}

// shedOldestWindow abandons the oldest un-diagnosed window: its buffered
// records are discarded, the flush boundary advances as if it had been
// analysed, and the stream never sees them. Fresh data wins, history
// loses. What the stream sealed before stays sealed and is not counted.
func (m *Monitor) shedOldestWindow() {
	// Every buffered record is at or before nextFlush.
	n := len(m.pending)
	m.flushedTo = m.nextFlush
	m.nextFlush = m.nextFlush.Add(m.cfg.Window)
	m.dropFront(n)
	if n > 0 {
		// Boundary advances past windows with nothing buffered don't count
		// as shed windows — nothing was lost there.
		m.stats.WindowsShed++
		m.obsWindowsShed.Inc()
		m.stats.RecordsShed += n
		m.obsRecordsShed.Add(int64(n))
	}
}

// windowStart is the start of the open window's span, nextFlush − Window −
// Overlap: the horizon the stream evicts to when it seals the window.
func (m *Monitor) windowStart() simtime.Time {
	return m.nextFlush - simtime.Time(m.cfg.Window+m.cfg.Overlap)
}

// setPending publishes the buffer's size and the open window's fill.
func (m *Monitor) setPending() {
	m.obsPending.Set(int64(len(m.pending)))
	if c := m.cfg.Resilience.RingCapacity; c > 0 {
		m.obsOccupancy.Set(int64((m.held + len(m.pending)) * 1000 / c))
	}
}

// Flush diagnoses whatever remains (end of stream). When nothing buffered
// is newer than the last flushed window there is no window left and Flush
// is a no-op, so a second Flush never reports a phantom window.
func (m *Monitor) Flush() []Alert {
	if n := len(m.pending); n == 0 || m.closed(m.pending[n-1].At) {
		return nil
	}
	return m.flushWindow()
}

// flushWindow hands the buffered records up to nextFlush to the stream and
// diagnoses the window. Under pressure it runs the window at the rung the
// degradation ladder picks; a window that overruns its deadline or panics
// is abandoned whole — counted, never half-reported — and the stream lives
// on.
func (m *Monitor) flushWindow() []Alert {
	end := m.nextFlush
	// The window's records: the sealed overlap it carries and the buffer,
	// every record of which is at or before end.
	n := m.held + len(m.pending)
	m.nextFlush = end.Add(m.cfg.Window)
	m.flushedTo = end
	m.ranTo = end
	m.stats.Windows++
	m.obsWindows.Inc()
	defer m.settle(end)

	if n == 0 {
		// An empty window: the stream still has to see the boundary so
		// eviction keeps pace with the watermark (a stream gap must drain
		// retained segments).
		m.advanceStream(end)
		return nil
	}

	// Pick the ladder rung from deterministic pressure signals: the
	// window's own record count and the whole-window backlog queued behind
	// it. The heap watermark (memSteps) is a machine-local safety net,
	// usually 0 and off by default.
	backlog := 0
	if m.cfg.Window > 0 && m.lastWatermark > end {
		backlog = int(m.lastWatermark.Sub(end) / m.cfg.Window)
	}
	memSteps := 0
	if m.mem != nil {
		memSteps = m.mem.Steps()
	}
	level := max(resilience.Decide(m.cfg.Resilience.RingCapacity, n, backlog, memSteps), m.cfg.Degrade)
	m.setDegradation(level)
	if level > resilience.Full {
		m.stats.Degraded++
	}
	if level >= resilience.Skipped {
		m.stats.WindowsSkipped++
		m.obsSkipped.Inc()
		// A skipped window is still ingested: the stream's watermark must
		// track the flush boundary through overload or the next diagnosed
		// window would mis-assign the skipped records.
		m.advanceStream(end)
		return nil
	}

	//mslint:allow ctxflow push-driven monitor owns its window deadline; no caller ctx exists on the feed path
	ctx := context.Background()
	cancel := func() {}
	if d := m.cfg.Resilience.WindowDeadline; d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	var res *pipeline.Result
	var runErr error
	analyse := func() {
		if hook := m.cfg.Diagnosis.ChaosHook; hook != nil {
			hook("window:" + strconv.Itoa(m.stats.Windows-1))
		}
		res, runErr = m.stream.RunWindow(ctx, end, level, m.pending)
	}
	if m.cfg.Resilience.ContainPanics {
		// Window-granularity containment: a panic anywhere in the
		// analysis — including the hook itself — quarantines this window.
		if perr := resilience.Contain("window", analyse); perr != nil {
			runErr = perr
		}
	} else {
		analyse()
	}
	cancel()
	if runErr != nil {
		m.quarantineOrSkip(runErr)
		return nil
	}
	m.stats.ContainedPanics += int(res.ContainedPanics)
	health := res.Health
	sst := m.stream.Stats()
	m.stats.Unmatched = sst.Recon.Unmatched
	m.stats.Quarantined = sst.Recon.Quarantined
	diags := res.Diagnoses
	m.stats.Victims += len(diags)
	m.obsVictims.Add(int64(len(diags)))
	if m.cfg.OnWindow != nil {
		m.cfg.OnWindow(end, res)
	}

	// Merge culprits across the window's victims. A culprit counts a victim
	// once however many of that victim's causes name it: counted holds the
	// last diagnosis (1-based, so the zero value is "none") already added
	// to victims.
	type acc struct {
		score   float64
		victims int
		counted int
		onset   simtime.Time
	}
	merged := make(map[alertKey]*acc)
	for i := range diags {
		for _, c := range diags[i].Causes {
			k := alertKey{c.Comp, c.Kind}
			a := merged[k]
			if a == nil {
				a = &acc{onset: c.At}
				merged[k] = a
			}
			a.score += c.Score
			if c.At < a.onset {
				a.onset = c.At
			}
			if a.counted != i+1 {
				a.victims++
				a.counted = i + 1
			}
		}
	}
	keys := make([]alertKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if merged[keys[i]].score != merged[keys[j]].score {
			return merged[keys[i]].score > merged[keys[j]].score
		}
		if keys[i].comp != keys[j].comp {
			return keys[i].comp < keys[j].comp
		}
		return keys[i].kind < keys[j].kind
	})
	var out []Alert
	for _, k := range keys {
		a := merged[k]
		if a.score < m.cfg.MinScore {
			continue
		}
		if last, ok := m.lastAlert[k]; ok {
			d := a.onset.Sub(last)
			if d < 0 {
				d = -d
			}
			if d < m.cfg.Window {
				continue // the same episode, already alerted
			}
		}
		m.lastAlert[k] = a.onset
		out = append(out, Alert{
			WindowEnd: end,
			Comp:      k.comp,
			Kind:      k.kind,
			Score:     a.score,
			Victims:   a.victims,
			Onset:     a.onset,
			Health:    health,
		})
		m.stats.Alerts++
		m.obsAlerts.Inc()
	}
	return out
}

// advanceStream runs an ingest-only advance of the stream (no diagnosis):
// the Skipped rung seals the buffer into grid segments and evicts the
// expired horizon, keeping the stream's watermark on the monitor's flush
// boundary. A contained ingest panic quarantines the stream's view of the
// window; the already-counted skip stands.
func (m *Monitor) advanceStream(end simtime.Time) {
	//mslint:allow ctxflow push-driven monitor has no caller ctx; window deadlines are applied inside RunWindow
	if _, err := m.stream.RunWindow(context.Background(), end, resilience.Skipped, m.pending); err != nil {
		if resilience.IsPanic(err) {
			m.stats.WindowsQuarantined++
			m.obsQuarantined.Inc()
		}
	}
}

// StreamStats returns the stream's cumulative seal-time accounting. ok is
// always true: every monitor runs the stream (the result is kept for
// existing callers).
func (m *Monitor) StreamStats() (st tracestore.StreamStats, ok bool) {
	return m.stream.Stats(), true
}

// settle drops from the buffer what the stream sealed for the window
// ending at end — normally all of it. A window whose ingest never ran (a
// contained panic before the seal) keeps its unsealed records from end −
// Overlap on, so boundary-straddling queuing periods reach the stream with
// the next window; older ones are lost with the window.
func (m *Monitor) settle(end simtime.Time) {
	sealed, keepFrom := m.stream.Stream().SealedTo(), end.Add(-m.cfg.Overlap)
	m.dropFront(sort.Search(len(m.pending), func(i int) bool {
		at := m.pending[i].At
		return at > sealed && at >= keepFrom
	}))
}

// dropFront drops the first n buffered records, zeroing their slots so the
// payloads they reference are released, and takes the sealed part of the
// open window from the stream again.
func (m *Monitor) dropFront(n int) {
	k := copy(m.pending, m.pending[n:])
	clear(m.pending[k:])
	m.pending = m.pending[:k]
	m.held = m.stream.Stream().RecordsFrom(m.windowStart())
	m.setPending()
}

// setDegradation records the rung the current window runs at.
func (m *Monitor) setDegradation(l resilience.Level) {
	m.lastDegradation = l
	m.obsDegradation.Set(int64(l))
}

// quarantineOrSkip books a window that produced no usable output: a
// contained panic quarantines it, a blown deadline (or outer
// cancellation) skips it. Either way the window's partial output is
// discarded — half a diagnosis would break the determinism contract —
// and the stream continues.
func (m *Monitor) quarantineOrSkip(err error) {
	if resilience.IsPanic(err) {
		m.stats.WindowsQuarantined++
		m.obsQuarantined.Inc()
		m.setDegradation(resilience.Skipped)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		m.stats.DeadlineExceeded++
		m.obsDeadline.Inc()
	}
	m.stats.WindowsSkipped++
	m.obsSkipped.Inc()
	m.setDegradation(resilience.Skipped)
}

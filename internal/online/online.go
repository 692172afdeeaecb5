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
	// Window is the analysis chunk length (default 100 ms).
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
	// every genuine record behind it as late. Default 4096 windows;
	// negative disables the guard. See ResyncAfter for how the monitor
	// recovers when the stream itself genuinely jumps past the horizon.
	MaxLookahead simtime.Duration
	// ResyncAfter is the recovery path for the MaxLookahead guard: after
	// this many consecutive beyond-horizon records whose timestamps are
	// mutually consistent (each within MaxLookahead of the previous one),
	// the monitor concludes the stream — not the watermark — is right (a
	// real gap, e.g. a collector outage longer than MaxLookahead), accepts
	// the record, and jumps the watermark forward. Corrupt timestamps are
	// independent bit-patterns and practically never form a consistent
	// run, so the guard still catches them. Default 8; negative disables
	// resync (beyond-horizon records are then dropped forever, the
	// pre-resync behaviour).
	ResyncAfter int
	// MinScore is the alert threshold on a window's merged culprit
	// score, in packets (default 100).
	MinScore float64
	// Diagnosis passes through engine knobs (victim percentile, the
	// per-victim fan-out's Workers, etc.). Its MaxVictims caps diagnosis
	// work per window (default 200). Its ContainPanics and ChaosHook are
	// ignored: Resilience.ContainPanics and ChaosHook below set them.
	Diagnosis core.Config
	// HoldOff suppresses repeated alerts for the same <comp, kind> with
	// onsets within this duration of an already-alerted onset
	// (default: one Window).
	HoldOff simtime.Duration
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
	// OnWindow, when non-nil, observes every successfully diagnosed
	// window: the flush boundary and the full pipeline Result, before
	// alert merging. Called synchronously from the feed goroutine — the
	// serving tier captures per-window reports (and their fingerprints)
	// here. Skipped and quarantined windows never fire it; they produce
	// no Result. res.Store and res.Index are the stream's window store,
	// lent for the duration of the call (pipeline.Result.Store): the next
	// window overwrites them in place, so the callback must take what it
	// wants to keep and not the pointers.
	OnWindow func(end simtime.Time, res *pipeline.Result)
	// ChaosHook, when non-nil, fires with scope "window:<n>" before each
	// window's analysis and is forwarded into the per-window pipeline
	// (scopes "stage:<name>" and "victim:<i>"). The chaos harness injects
	// deterministic faults through it; never set in production.
	ChaosHook func(scope string)
}

// Monitor defaults for the Config knobs left zero.
const (
	// DefaultWindow is the flush cadence.
	DefaultWindow = 100 * simtime.Millisecond
	// DefaultOverlap is the tail carried into the next window.
	DefaultOverlap = 20 * simtime.Millisecond
	// DefaultLookaheadWindows is MaxLookahead's default, in windows.
	DefaultLookaheadWindows = 4096
	// DefaultResyncAfter is the watermark-jump recovery run length.
	DefaultResyncAfter = 8
	// DefaultMinScore is the alert threshold, in packets.
	DefaultMinScore = 100
)

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
	if c.ResyncAfter == 0 {
		c.ResyncAfter = DefaultResyncAfter
	}
	if c.MinScore == 0 {
		c.MinScore = DefaultMinScore
	}
	if c.Diagnosis.MaxVictims == 0 {
		c.Diagnosis.MaxVictims = 200
	}
	if c.HoldOff == 0 {
		c.HoldOff = c.Window
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

	// pending is the bounded ingest ring (unbounded when RingCapacity=0).
	pending *resilience.Ring[collector.BatchRecord]
	// spans is unsealedSpans' result buffer.
	spans [2][]collector.BatchRecord
	// mem samples the heap against the configured watermarks.
	mem       *resilience.MemWatcher
	nextFlush simtime.Time
	// flushedTo is the end of the last flushed window; records at or
	// before it (closed) are too late to analyse.
	flushedTo simtime.Time
	// lastAlert remembers alerted onsets per culprit for hold-off.
	lastAlert     map[alertKey]simtime.Time
	lastWatermark simtime.Time
	// implausibleAt / implausibleRun track the current run of
	// beyond-horizon timestamps for ResyncAfter: implausibleAt is the most
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
	// already diagnosed and had to be discarded.
	LateDropped int
	// Unmatched and Quarantined are the stream's seal-time
	// reconstruction totals: each record is reconstructed once, so they
	// are monotone — across watermark resyncs too — and never count the
	// overlap twice.
	Unmatched, Quarantined int
	// RecordsShed counts records discarded by the bounded-ingest shed
	// policy (rejected arrivals under ShedRejectNew, or arrivals whose
	// window was dropped under ShedDropOldest).
	RecordsShed int
	// WindowsShed counts whole un-diagnosed windows abandoned by
	// ShedDropOldest to make room for fresher records.
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
	// ResyncAfter mutually-consistent beyond-horizon timestamps in a row
	// proved a genuine stream gap, and the watermark jumped forward to
	// follow the stream instead of dropping it forever.
	WatermarkResyncs int
}

// New creates a monitor for a deployment described by meta. It panics on
// a negative Config.Overlap, or a window geometry the stream grid cannot
// express: a misconfiguration, not a runtime condition.
func New(meta collector.Meta, cfg Config) *Monitor {
	if cfg.Overlap < 0 {
		panic(fmt.Sprintf("online: Config.Overlap must be >= 0, got %v", cfg.Overlap))
	}
	cfg.setDefaults()
	// The per-window pipeline reads containment and the chaos hook from
	// its diagnosis config; the monitor's own switches set them.
	cfg.Diagnosis.ContainPanics = cfg.Resilience.ContainPanics
	cfg.Diagnosis.ChaosHook = cfg.ChaosHook
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
		pending:   resilience.NewRing[collector.BatchRecord](cfg.Resilience.RingCapacity),
		lastAlert: make(map[alertKey]simtime.Time),
		nextFlush: simtime.Time(cfg.Window),
	}
	reg := obs.Or(cfg.Obs)
	if cfg.Resilience.MemSoftBytes > 0 || cfg.Resilience.MemHardBytes > 0 {
		m.mem = &resilience.MemWatcher{
			SoftBytes: cfg.Resilience.MemSoftBytes,
			HardBytes: cfg.Resilience.MemHardBytes,
		}
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

// Backlog returns how many buffered records await diagnosis.
func (m *Monitor) Backlog() int { return m.pending.Len() }

// Feed appends records and diagnoses any windows they complete, returning
// the alerts raised. Records should arrive roughly in time order; bounded
// lateness is tolerated (late records are sorted into the open window), but
// a record older than an already-diagnosed window is dropped and counted.
// When the ingest ring is full the configured shed policy decides what
// gives: the arrival (ShedRejectNew) or the oldest un-diagnosed window
// (ShedDropOldest).
func (m *Monitor) Feed(recs []collector.BatchRecord) []Alert {
	var out []Alert
	for _, r := range recs {
		if m.closed(r.At) {
			m.stats.LateDropped++
			m.obsLateDropped.Inc()
			continue
		}
		if m.cfg.MaxLookahead > 0 && m.lastWatermark > 0 &&
			r.At > m.lastWatermark.Add(m.cfg.MaxLookahead) {
			if !m.noteImplausible(r.At) {
				m.stats.ImplausibleDropped++
				m.obsImplausible.Inc()
				continue
			}
			// Resync: the run proved a genuine stream gap. Fall through
			// and accept the record; the watermark jumps with it below.
		} else if m.implausibleRun != 0 {
			// An in-horizon record breaks any beyond-horizon run: corrupt
			// timestamps interleaved with live data never accumulate into
			// a spurious resync.
			m.implausibleRun = 0
		}
		if r.At > m.lastWatermark {
			m.lastWatermark = r.At
			m.obsWatermark.Set(int64(r.At))
			// Lag: how far the newest record runs ahead of the last
			// diagnosed boundary — bounded backlog under steady state.
			m.obsLag.Set(int64(r.At.Sub(m.flushedTo)))
		}
		// Flush every window this record's timestamp closes before
		// buffering it. Flushing first (rather than after the insert, as a
		// purely unbounded consumer could) matters for bounded rings: the
		// flush retains only the overlap tail, so a boundary-crossing
		// record still drains the ring even when arrivals are being shed.
		// Strictly greater: flushWindow's cut predicate (At > end) closes
		// a window *including* records timestamped exactly at its end, so
		// an At == nextFlush arrival must be buffered first and flushed
		// with the window it belongs to — matching offline assignment.
		for r.At > m.nextFlush {
			out = append(out, m.flushWindow()...)
		}
		if m.pending.Full() {
			if m.cfg.Resilience.Policy == resilience.ShedRejectNew {
				m.stats.RecordsShed++
				m.obsRecordsShed.Inc()
				continue
			}
			// ShedDropOldest: abandon whole un-diagnosed windows until
			// there is room. Each shed advances the flush boundary, so the
			// loop strictly progresses; if the arrival's own window is
			// shed from under it, the arrival is shed with it.
			for m.pending.Full() {
				m.shedOldestWindow()
			}
			if m.closed(r.At) {
				m.stats.RecordsShed++
				m.obsRecordsShed.Inc()
				continue
			}
		}
		m.stats.Records++
		m.obsRecords.Inc()
		if n := m.pending.Len(); n > 0 && r.At < m.pending.At(n-1).At {
			// Late but still analysable: insert in time order.
			i := m.pending.Search(func(p collector.BatchRecord) bool { return p.At > r.At })
			m.pending.Insert(i, r)
			m.stats.LateAccepted++
			m.obsLateAccepted.Inc()
		} else {
			m.pending.Append(r)
		}
		m.obsOccupancy.Set(int64(m.pending.Occupancy() * 1000))
	}
	return out
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
// resumes with timestamps that are mutually consistent. After ResyncAfter
// consecutive beyond-horizon records each within MaxLookahead of the
// previous one — bounded reordering in the resumed stream is tolerated by
// comparing absolute distance — the stream wins: the caller accepts the
// record and the watermark jumps forward with it. The run's earlier
// records were already dropped and counted; only the completing record is
// recovered, and the stream flows again from there.
func (m *Monitor) noteImplausible(at simtime.Time) (resync bool) {
	if m.cfg.ResyncAfter < 0 {
		return false
	}
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
	if m.implausibleRun < m.cfg.ResyncAfter {
		return false
	}
	m.implausibleRun = 0
	m.stats.WatermarkResyncs++
	m.obsResyncs.Inc()
	return true
}

// shedOldestWindow abandons the oldest un-diagnosed window: its records
// are discarded, the flush boundary advances as if it had been analysed,
// and nothing downstream ever sees it. Fresh data wins, history loses.
func (m *Monitor) shedOldestWindow() {
	end := m.nextFlush
	cut := m.pending.Search(func(p collector.BatchRecord) bool { return p.At > end })
	m.pending.DropFront(cut)
	m.flushedTo = end
	m.nextFlush = end.Add(m.cfg.Window)
	if cut > 0 {
		// Boundary advances past empty stretches don't count as shed
		// windows — nothing was lost there.
		m.stats.WindowsShed++
		m.obsWindowsShed.Inc()
		m.stats.RecordsShed += cut
		m.obsRecordsShed.Add(int64(cut))
	}
}

// Flush diagnoses whatever remains (end of stream). When nothing pending
// is newer than the last flushed window — the ring holds only its overlap
// tail, already diagnosed — there is no window left and Flush is a no-op,
// so a second Flush never reports a phantom window.
func (m *Monitor) Flush() []Alert {
	if n := m.pending.Len(); n == 0 || m.closed(m.pending.At(n-1).At) {
		return nil
	}
	return m.flushWindow()
}

// flushWindow diagnoses records up to nextFlush and retains the overlap
// tail for the next window. Under pressure it runs the window at the rung
// the degradation ladder picks; a window that overruns its deadline or
// panics is abandoned whole — counted, never half-reported — and the
// stream lives on.
func (m *Monitor) flushWindow() []Alert {
	end := m.nextFlush
	m.nextFlush = end.Add(m.cfg.Window)
	m.flushedTo = end
	m.stats.Windows++
	m.obsWindows.Inc()

	// Records in the window (all pending up to end).
	cut := m.pending.Search(func(p collector.BatchRecord) bool { return p.At > end })
	if cut == 0 {
		// Nothing new and no retained overlap records: the stream still
		// has to see the boundary so eviction keeps pace with the
		// watermark (a stream gap must drain retained segments).
		m.advanceStream(end, nil)
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
	level := m.cfg.Resilience.Ladder.Decide(cut, backlog, memSteps)
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
		m.advanceStream(end, m.unsealedSpans(cut))
		m.retainOverlap(end)
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
		if m.cfg.ChaosHook != nil {
			m.cfg.ChaosHook("window:" + strconv.Itoa(m.stats.Windows-1))
		}
		res, runErr = m.stream.RunWindow(ctx, end, level, m.unsealedSpans(cut)...)
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
		m.retainOverlap(end)
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
			if d < m.cfg.HoldOff {
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

	m.retainOverlap(end)
	return out
}

// advanceStream runs an ingest-only advance of the stream (no diagnosis):
// the Skipped rung seals recs into grid segments and evicts the expired
// horizon, keeping the stream's watermark on the monitor's flush boundary.
// A contained ingest panic quarantines the stream's view of the window;
// the already-counted skip stands.
func (m *Monitor) advanceStream(end simtime.Time, spans [][]collector.BatchRecord) {
	//mslint:allow ctxflow push-driven monitor has no caller ctx; window deadlines are applied inside RunWindow
	if _, err := m.stream.RunWindow(context.Background(), end, resilience.Skipped, spans...); err != nil {
		if resilience.IsPanic(err) {
			m.stats.WindowsQuarantined++
			m.obsQuarantined.Inc()
		}
	}
}

// unsealedSpans returns the records the stream has yet to seal — ring
// positions [first At > SealedTo, cut) — as the ring's own backing slices.
// The ring still holds the overlap before them (the ladder's pressure
// signal counts it, and late inserts land among it), but the stream sealed
// those records in an earlier window and would only filter them out again.
// The spans alias the ring: they are valid until the next ring mutation,
// and the stream copies each record exactly once, into the segment that
// owns it.
func (m *Monitor) unsealedSpans(cut int) [][]collector.BatchRecord {
	sealed := m.stream.Stream().SealedTo()
	from := m.pending.Search(func(p collector.BatchRecord) bool { return p.At > sealed })
	if from > cut {
		from = cut
	}
	a, b := m.pending.Spans(from, cut)
	m.spans[0], m.spans[1] = a, b
	return m.spans[:]
}

// StreamStats returns the stream's cumulative seal-time accounting. ok is
// always true: every monitor runs the stream (the result is kept for
// existing callers).
func (m *Monitor) StreamStats() (st tracestore.StreamStats, ok bool) {
	return m.stream.Stats(), true
}

// retainOverlap drops buffered records before the overlap tail of the
// window ending at end, keeping boundary-straddling queuing periods
// intact for the next window.
func (m *Monitor) retainOverlap(end simtime.Time) {
	keepFrom := end.Add(-m.cfg.Overlap)
	start := m.pending.Search(func(p collector.BatchRecord) bool { return p.At >= keepFrom })
	m.pending.DropFront(start)
	m.obsPending.Set(int64(m.pending.Len()))
	m.obsOccupancy.Set(int64(m.pending.Occupancy() * 1000))
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

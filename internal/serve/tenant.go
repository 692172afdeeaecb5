// Package serve is the multi-tenant serving tier: one process hosts many
// concurrent diagnosis deployments ("tenants"), each a fully
// self-contained pipeline described by a declarative spec.PipelineSpec
// and owning its own incremental stream state, bounded ingest, metrics
// namespace, and remediation hooks.
//
// Tenant isolation is the load-bearing property. Each tenant's records
// are consumed by a dedicated feed goroutine (the online monitor is
// single-threaded by contract), all shared package state in the pipeline
// is either immutable or pooled, and per-tenant registries are labeled —
// so N tenants running concurrently produce windows byte-identical
// (Result.Fingerprint) to each tenant running alone, even while another
// tenant is shedding, degraded, or containing panics.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"microscope/internal/collector"
	"microscope/internal/obs"
	"microscope/internal/online"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/spec"
	"microscope/internal/tracestore"
)

// feedQueueCap bounds each tenant's ingest chunk queue. The queue is the
// HTTP-to-feed handoff; the real record bound is the monitor's
// resilience.RingCapacity. A full queue is backpressure (HTTP 429), not
// silent buffering.
const feedQueueCap = 64

// maxFreeChunks bounds each tenant's free list of decoded record chunks,
// and maxFreeChunkRecs the capacity of a chunk the list keeps. The list
// only has to cover the chunks in flight between the handlers and the
// feed goroutine at its steady pace; chunks a burst parks in the feed
// queue beyond that are left to the GC rather than held for good.
const (
	maxFreeChunks    = 4
	maxFreeChunkRecs = 16 << 10
)

// Bounded retention of per-tenant outputs served over HTTP.
const (
	maxRetainedReports = 256
	maxRetainedAlerts  = 1024
)

// ErrBackpressure is returned by Enqueue when the tenant's ingest queue
// is full (or its monitor is rejecting): the client should back off and
// retry. The HTTP layer maps it to 429 + Retry-After.
var ErrBackpressure = errors.New("serve: tenant ingest backlogged")

// ErrStopped is returned when records arrive for a tenant that is
// draining or deleted.
var ErrStopped = errors.New("serve: tenant stopped")

// WindowReport is the retained summary of one diagnosed window: enough
// for an operator to read the outcome, plus the fingerprint hash that
// anchors the multi-tenant determinism contract (byte-identical to the
// same spec run in isolation).
type WindowReport struct {
	// End is the flush boundary that produced the report.
	End simtime.Time `json:"end"`
	// Fingerprint is the SHA-256 of the window Result's canonical
	// fingerprint (the byte-exact diagnosis output).
	Fingerprint string `json:"fingerprint"`
	// Degradation is the rung the window ran at.
	Degradation string `json:"degradation"`
	// Victims / Diagnoses / Patterns count the window's findings.
	Victims   int `json:"victims"`
	Diagnoses int `json:"diagnoses"`
	Patterns  int `json:"patterns"`
	// Health is the window's trace-quality one-liner.
	Health string `json:"health"`
}

// TenantStatus is the HTTP-visible state of one tenant.
type TenantStatus struct {
	ID string `json:"id"`
	// Draining reports whether the tenant is shutting down.
	Draining bool `json:"draining,omitempty"`
	// Windows etc. mirror the monitor's cumulative stats.
	Stats online.Stats `json:"stats"`
	// QueuedChunks is the current depth of the ingest handoff queue.
	QueuedChunks int `json:"queued_chunks"`
	// Reports is how many window reports are retained.
	Reports int `json:"reports"`
	// Alerts is how many alerts are retained.
	Alerts int `json:"alerts"`
	// RetainedBytes is the incremental index's retained segment memory —
	// the dominant per-tenant footprint, compared against the spec's
	// max_mem_bytes budget.
	RetainedBytes int64 `json:"retained_bytes"`
	// MemBudgetBytes echoes the spec's budget (0 = unbounded).
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
}

// feedMsg is one unit of work for a tenant's feed goroutine: a record
// chunk, an explicit flush barrier, or both. done (when non-nil) is
// closed after the message is fully processed.
type feedMsg struct {
	recs []collector.BatchRecord
	// recycle marks recs as a chunk the HTTP handler decoded into: once fed
	// it goes back on the tenant's free list. A chunk a caller handed to
	// Enqueue is never recycled — the caller may send it again.
	recycle bool
	flush   bool
	done    chan struct{}
	// barrier, when non-nil, stalls the feed goroutine until it closes —
	// tests use it to fill the queue deterministically. Never set in
	// production paths.
	barrier chan struct{}
}

// Tenant is one hosted deployment. All mutable state is either owned by
// the feed goroutine (monitor, stream) or guarded by mu (the snapshots
// the HTTP handlers read).
type Tenant struct {
	ID   string
	Spec *spec.PipelineSpec // resolved
	Reg  *obs.Registry      // labeled tenant=<ID>

	// decodeJSON and decodeMST2 time each ingest body's decode, one
	// observation a body.
	decodeJSON, decodeMST2 *obs.Histogram

	mon   *online.Monitor
	hooks *hookRunner
	in    chan feedMsg
	done  chan struct{} // feed goroutine exited

	// drainHook, when non-nil, runs at the top of drain — tests use it to
	// inject a drain-time panic or to park a drain. Never set in
	// production paths.
	drainHook func()

	budget int64 // spec max_mem_bytes

	// fpBuf is the feed goroutine's fingerprint buffer: each window's
	// canonical bytes are rendered into it, hashed, and overwritten by the
	// next window's.
	fpBuf []byte

	mu      sync.Mutex
	stopped bool
	queued  int
	// free holds decoded record chunks the feed goroutine is done with,
	// for the next body to decode into (at most maxFreeChunks).
	free [][]collector.BatchRecord
	// reports is a ring of the last maxRetainedReports window reports,
	// oldest at reportAt(0); nReports counts every report ever retained.
	reports  [maxRetainedReports]retainedReport
	nReports int
	// latestDoc is the /report reply for the newest report.
	latestDoc []byte
	alerts    []online.Alert
	health    tracestore.Health
	hasHealth bool
	// stats / degradation are snapshots the feed goroutine publishes
	// after each message — the monitor itself must never be read from an
	// HTTP goroutine (it is single-threaded by contract).
	stats       online.Stats
	degradation resilience.Level
}

// newTenant builds a tenant from a resolved spec and starts its feed
// goroutine. The spec must carry a topology (validated by the server).
func newTenant(id string, rs *spec.PipelineSpec, hookEnv hookEnv) (*Tenant, error) {
	meta, ok := rs.Meta()
	if !ok {
		return nil, fmt.Errorf("serve: tenant %q: spec has no topology (the serving tier reconstructs from spec'd metadata)", id)
	}
	reg := obs.NewLabeled("tenant", id)
	t := &Tenant{
		ID:     id,
		Spec:   rs,
		Reg:    reg,
		in:     make(chan feedMsg, feedQueueCap),
		done:   make(chan struct{}),
		budget: rs.Resilience.MaxMemBytes,

		decodeJSON: reg.Histogram(`microscope_ingest_decode_ns{format="json"}`),
		decodeMST2: reg.Histogram(`microscope_ingest_decode_ns{format="mst2"}`),
	}
	t.hooks = newHookRunner(id, rs.Hooks, rs.RetryPolicy(), reg, hookEnv)

	mcfg := rs.MonitorConfig(reg)
	// The serving tier is always-on: a tenant panic must quarantine a
	// window, never kill the process hosting every other tenant.
	mcfg.Resilience.ContainPanics = true
	mcfg.OnWindow = t.onWindow
	t.mon = online.New(meta, mcfg)
	go t.feedLoop()
	return t, nil
}

// retainedReport is one slot of the report ring: the report and the bytes
// a /reports reply carries for it as an element of the array, encoded once
// when the window closed — so a poll costs a copy of what it returns, not
// an encode.
type retainedReport struct {
	rep  WindowReport
	elem []byte
}

// onWindow runs on the feed goroutine for every diagnosed window and
// retains its report summary. Nothing of res outlives the call: the
// window's store is lent (pipeline.Result.Store), so what is kept is the
// hash, the counts and the health line.
func (t *Tenant) onWindow(end simtime.Time, res *pipeline.Result) {
	t.fpBuf = res.AppendFingerprint(t.fpBuf[:0])
	sum := sha256.Sum256(t.fpBuf)
	rep := WindowReport{
		End:         end,
		Fingerprint: hex.EncodeToString(sum[:]),
		Degradation: res.Degradation.String(),
		Victims:     len(res.Victims),
		Diagnoses:   len(res.Diagnoses),
		Patterns:    len(res.Patterns),
		Health:      res.Health.String(),
	}
	doc := encodeJSON(rep)
	t.mu.Lock()
	slot := &t.reports[t.nReports%maxRetainedReports]
	slot.rep = rep
	slot.elem = appendElement(slot.elem[:0], doc)
	t.latestDoc = append(t.latestDoc[:0], doc...)
	t.nReports++
	t.health, t.hasHealth = res.Health, true
	t.mu.Unlock()
}

// appendElement appends to dst the form an encodeJSON document takes as an
// element of an encoded array: one more indent on every line, and no
// trailing newline. The array form of one report is "[\n" + element +
// "\n]\n". Every newline in doc is between tokens, since a JSON string
// never holds a raw one.
func appendElement(dst, doc []byte) []byte {
	dst = append(dst, "  "...)
	for _, b := range doc[:len(doc)-1] {
		dst = append(dst, b)
		if b == '\n' {
			dst = append(dst, "  "...)
		}
	}
	return dst
}

// retained returns how many reports the ring holds; reportAt(i) is the
// i-th oldest of them. The caller holds t.mu.
func (t *Tenant) retained() int { return min(t.nReports, maxRetainedReports) }

func (t *Tenant) reportAt(i int) *retainedReport {
	return &t.reports[(t.nReports-t.retained()+i)%maxRetainedReports]
}

// lastN returns the reportAt range [lo, hi) of the newest n retained
// reports (n <= 0 = all retained). The caller holds t.mu.
func (t *Tenant) lastN(n int) (lo, hi int) {
	hi = t.retained()
	if n <= 0 || n > hi {
		n = hi
	}
	return hi - n, hi
}

// feedLoop is the tenant's single consumer: the online monitor is not
// goroutine-safe, so every record and every flush flows through here in
// arrival order — which is what keeps a tenant's output deterministic
// regardless of how many HTTP clients (or other tenants) are active.
func (t *Tenant) feedLoop() {
	defer close(t.done)
	for msg := range t.in {
		if msg.barrier != nil {
			<-msg.barrier
		}
		if len(msg.recs) > 0 {
			alerts := t.mon.Feed(msg.recs)
			t.noteAlerts(alerts)
		}
		if msg.flush {
			t.noteAlerts(t.mon.Flush())
		}
		t.mu.Lock()
		if msg.recycle {
			t.putChunkLocked(msg.recs)
		}
		t.queued--
		t.stats = t.mon.Stats()
		t.degradation = t.mon.LastDegradation()
		t.mu.Unlock()
		if msg.done != nil {
			close(msg.done)
		}
	}
	// Drain: the final partial window flushes so no ingested record is
	// silently lost on shutdown.
	t.noteAlerts(t.mon.Flush())
	t.mu.Lock()
	t.stats = t.mon.Stats()
	t.degradation = t.mon.LastDegradation()
	t.mu.Unlock()
}

// noteAlerts retains alerts and fires remediation hooks.
func (t *Tenant) noteAlerts(alerts []online.Alert) {
	if len(alerts) == 0 {
		return
	}
	t.mu.Lock()
	t.alerts = append(t.alerts, alerts...)
	if len(t.alerts) > maxRetainedAlerts {
		t.alerts = append(t.alerts[:0], t.alerts[len(t.alerts)-maxRetainedAlerts:]...)
	}
	t.mu.Unlock()
	t.hooks.fire(alerts)
}

// reserve claims one slot of the ingest queue for a chunk that is still to
// be read and decoded, so a tenant that cannot take it says so before any
// of that work is done: a full queue is ErrBackpressure (HTTP 429), a
// draining tenant ErrStopped (HTTP 503). queued counts reserved slots, the
// chunks waiting in the queue and the one being fed, and never exceeds
// feedQueueCap — which is what lets fill's send never block. Every reserve
// is followed by exactly one fill or release.
func (t *Tenant) reserve() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return ErrStopped
	}
	if t.queued >= feedQueueCap {
		return ErrBackpressure
	}
	t.queued++
	return nil
}

// release gives back a reserved slot that will not be filled (the body
// did not decode, or held no records).
func (t *Tenant) release() {
	t.mu.Lock()
	t.queued--
	t.mu.Unlock()
}

// observeDecode books one body's decode time under its format.
func (t *Tenant) observeDecode(dec bodyDecode) {
	switch dec.format {
	case "json":
		t.decodeJSON.Observe(dec.took)
	case "mst2":
		t.decodeMST2.Observe(dec.took)
	}
}

// takeChunk returns a record chunk from the free list for a body to be
// decoded into, or nil (the decoder then allocates one). Its stale records
// are overwritten by the decode, never read.
func (t *Tenant) takeChunk() []collector.BatchRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.free)
	if n == 0 {
		return nil
	}
	c := t.free[n-1]
	t.free[n-1] = nil
	t.free = t.free[:n-1]
	return c
}

// putChunk gives a chunk back to the free list; one the list has no room
// for, or that grew past maxFreeChunkRecs, is dropped.
func (t *Tenant) putChunk(c []collector.BatchRecord) {
	t.mu.Lock()
	t.putChunkLocked(c)
	t.mu.Unlock()
}

func (t *Tenant) putChunkLocked(c []collector.BatchRecord) {
	if cap(c) > 0 && cap(c) <= maxFreeChunkRecs && len(t.free) < maxFreeChunks {
		t.free = append(t.free, c[:0])
	}
}

// fill hands msg to the feed goroutine in the slot reserve claimed. The
// tenant may have started draining since; the slot is then given back.
func (t *Tenant) fill(msg feedMsg) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		t.queued--
		return ErrStopped
	}
	select {
	case t.in <- msg:
		return nil
	default:
		// Unreachable while every send is reserved for; refuse rather
		// than block the caller under the lock.
		t.queued--
		return ErrBackpressure
	}
}

// Enqueue hands a record chunk to the feed goroutine without blocking.
// A full queue is ErrBackpressure (HTTP 429); a draining tenant is
// ErrStopped (HTTP 503). The caller must not retain recs.
func (t *Tenant) Enqueue(recs []collector.BatchRecord) error {
	if len(recs) == 0 {
		return nil
	}
	if err := t.reserve(); err != nil {
		return err
	}
	return t.fill(feedMsg{recs: recs})
}

// Flush requests an end-of-stream flush of the pending partial window
// and waits for it (bounded by ctx). Used by the smoke flow and tests;
// a live deployment's windows flush on watermark progress alone.
func (t *Tenant) Flush(ctx context.Context) error {
	if err := t.reserve(); err != nil {
		return err
	}
	done := make(chan struct{})
	if err := t.fill(feedMsg{flush: true, done: done}); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drain stops ingest, lets the feed goroutine finish the queue and flush
// the final window, and quiesces the hook runner. Safe to call twice.
func (t *Tenant) drain(ctx context.Context) error {
	if t.drainHook != nil {
		t.drainHook()
	}
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		<-t.done
		return t.hooks.quiesce(ctx)
	}
	t.stopped = true
	t.mu.Unlock()
	close(t.in)
	select {
	case <-t.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return t.hooks.quiesce(ctx)
}

// Status snapshots the tenant's HTTP-visible state.
func (t *Tenant) Status() TenantStatus {
	t.mu.Lock()
	st := TenantStatus{
		ID:             t.ID,
		Draining:       t.stopped,
		QueuedChunks:   t.queued,
		Reports:        t.retained(),
		Alerts:         len(t.alerts),
		MemBudgetBytes: t.budget,
		Stats:          t.stats,
	}
	t.mu.Unlock()
	// The gauge comes from the tenant's own registry, goroutine-safe by
	// construction.
	st.RetainedBytes = t.Reg.Gauge("microscope_stream_retained_bytes").Value()
	return st
}

// Reports returns up to n retained window reports, newest last (n <= 0 =
// all retained).
func (t *Tenant) Reports(n int) []WindowReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	var reps []WindowReport
	for i, hi := t.lastN(n); i < hi; i++ {
		reps = append(reps, t.reportAt(i).rep)
	}
	return reps
}

// ReportsJSON returns the JSON document writeJSON would send for
// Reports(n), stitched from the bytes each report was encoded to when its
// window closed.
func (t *Tenant) ReportsJSON(n int) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	lo, hi := t.lastN(n)
	if lo == hi {
		return []byte("null\n") // how a nil []WindowReport encodes
	}
	size := len("[\n") + len("\n]\n")
	for i := lo; i < hi; i++ {
		size += len(t.reportAt(i).elem) + len(",\n")
	}
	out := append(make([]byte, 0, size), "[\n"...)
	for i := lo; i < hi; i++ {
		if i > lo {
			out = append(out, ",\n"...)
		}
		out = append(out, t.reportAt(i).elem...)
	}
	return append(out, "\n]\n"...)
}

// LatestReport returns the most recent window report.
func (t *Tenant) LatestReport() (WindowReport, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nReports == 0 {
		return WindowReport{}, false
	}
	return t.reportAt(t.retained() - 1).rep, true
}

// LatestReportJSON returns the JSON document writeJSON would send for
// LatestReport.
func (t *Tenant) LatestReportJSON() ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nReports == 0 {
		return nil, false
	}
	return bytes.Clone(t.latestDoc), true
}

// Alerts returns the retained alerts, oldest first.
func (t *Tenant) Alerts() []online.Alert {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]online.Alert(nil), t.alerts...)
}

// healthz is the tenant's liveness verdict and the line that explains it:
// not ok when the latest diagnosed window's trace health is degraded, or
// when the latest window ran at the skipped rung — the ladder or the window
// deadline is shedding diagnosis whole. A tenant with no window yet is live.
func (t *Tenant) healthz() (ok bool, detail string) {
	t.mu.Lock()
	h, seen, deg := t.health, t.hasHealth, t.degradation
	t.mu.Unlock()
	detail = "no window diagnosed yet"
	if seen {
		detail = h.String()
	}
	return !(seen && h.Degraded()) && deg < resilience.Skipped, detail + "; degradation=" + deg.String()
}

// Degradation returns the rung the most recent window ran at.
func (t *Tenant) Degradation() resilience.Level {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.degradation
}

// Package nfsim is a deterministic discrete-event simulator of DPDK-style
// network-function chains: run-to-completion NFs that poll a bounded input
// ring in batches of at most 32 descriptors, process packets at a
// configurable peak rate, and transmit batches to downstream rings.
//
// The simulator stands in for the paper's testbed (Click-DPDK NFs pinned to
// dedicated cores behind SR-IOV NICs). Microscope itself only ever observes
// the batch-level receive/transmit records that the collector hooks emit —
// the same information Table 1 of the paper allows — so the diagnosis
// pipeline exercises identical code paths against this substrate as it
// would against a hardware deployment.
package nfsim

import (
	"fmt"

	"microscope/internal/simtime"
)

// event is a scheduled callback. Ties on time are broken by insertion
// sequence, which makes runs bit-for-bit reproducible.
type event struct {
	at  simtime.Time
	seq uint64
	fn  func()
}

// before orders events by (at, seq), a total order since seq is unique.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventHeap is a binary min-heap of events by (at, seq), typed so that
// pushing and popping never box an event into an interface.
type eventHeap []event

// push adds ev and sifts it up.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The vacated slot is zeroed
// so a callback that has run can be collected.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	i := 0
	for {
		least := i
		if l := 2*i + 1; l < n && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			return top
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

// Engine is the simulation event loop. Create one with NewEngine.
type Engine struct {
	now    simtime.Time
	seq    uint64
	events eventHeap
	nsteps uint64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() simtime.Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// At schedules fn to run at time t. Scheduling in the past panics: it is
// always a simulator bug, and silent reordering would corrupt causality.
func (e *Engine) At(t simtime.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("nfsim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d simtime.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// Run executes events in time order until the queue drains or the next
// event lies beyond until. It returns the time of the last executed event
// (or the current time if none ran).
func (e *Engine) Run(until simtime.Time) simtime.Time {
	for len(e.events) > 0 {
		if e.events[0].at > until {
			break
		}
		next := e.events.pop()
		e.now = next.at
		e.nsteps++
		next.fn()
	}
	if e.now < until && len(e.events) == 0 {
		// Advance the clock so successive Run calls observe progress
		// even on an idle system.
		e.now = until
	}
	return e.now
}

// Pending returns the number of queued events (observability for tests).
func (e *Engine) Pending() int { return len(e.events) }

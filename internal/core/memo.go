package core

import (
	"sync"

	"microscope/internal/obs"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// The §4.3 recursion revisits the same upstream queuing periods for many
// victims: every victim of one overload episode walks into the same
// (NF, period) nodes upstream. This file memoizes the budget-independent
// part of each node — the timespan decomposition, the Figure 7 Si/Sp split,
// and the period's culprit journeys — keyed by (NF, period), with
// single-flight semantics so concurrent workers hitting the same node
// compute it once and everyone else blocks for the result instead of
// duplicating the work.
//
// Each table is one map behind one mutex, held only for the map lookup or
// insert and never across a computation: a worker computing one period
// never blocks a worker after another.
//
// Determinism: every cached value is a pure function of its key over the
// immutable trace index, so the cache's contents never depend on which
// worker populated them or in what order. The budget scaling applied at use
// sites reproduces the pre-memoization arithmetic expression for expression,
// keeping scores bit-identical across worker counts.
//
// Cross-window carry: the streaming path keeps the memo alive across
// sliding windows. Between two windows (single-threaded — the previous
// window's workers have all joined), Engine.CarryMemo walks the tables and
// evicts entries whose periods reach into evicted history. The survivors
// need no translation: the journey and arrival references they hold are
// stream-absolute (tracestore/reconstruct.go) and name the same rows in
// the new window. They are stamped carried, so the reused-hit counter can
// report how much work the carry actually saved.

// periodKey identifies a queuing period at a component. For a fixed store
// and queue threshold, (comp, start, end) uniquely determines the period.
// The component is its interned CompID, so hashing a key never touches a
// string.
type periodKey struct {
	comp       tracestore.CompID
	start, end simtime.Time
}

// flight is a single-flight memo table keyed by periodKey: do(k, fn)
// returns fn()'s value for k, computing it at most once; concurrent
// callers of the same key wait for the first computation instead of
// repeating it. mu guards m only.
type flight[V any] struct {
	mu sync.Mutex
	m  map[periodKey]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	// ok distinguishes a completed computation from one whose fn panicked
	// mid-flight (the panic is contained further up; see below). The write
	// happens before close(done), so waiters reading after <-done see it.
	ok bool
	// carried marks an entry rebound from a previous window by CarryMemo.
	// Written only between window runs (single-threaded), read during
	// runs — the monitor goroutine starts the window's workers after the
	// rebind, which orders the write before every read.
	carried bool
}

// do returns fn()'s value for k, computing it at most once. hits/misses/
// reused are nil-safe observability counters (memo effectiveness is the
// pipeline's main cache-health signal; reused counts hits on entries
// carried over from a previous window). The table lock covers the lookup
// and, on a miss, the insert of the new flight; fn runs outside it.
//
// Panic safety: when fn panics, the flight is unpoisoned — the key is
// removed so later callers recompute, and waiters already blocked on the
// flight are released and compute fn themselves instead of trusting a
// half-built value. The panic itself keeps unwinding to the per-victim
// containment boundary (resilience.Contain); do never swallows it.
func (f *flight[V]) do(k periodKey, hits, misses, reused *obs.Counter, fn func() V) V {
	f.mu.Lock()
	if c, ok := f.m[k]; ok {
		f.mu.Unlock()
		return f.await(c, hits, reused, fn)
	}
	if f.m == nil {
		f.m = make(map[periodKey]*flightCall[V])
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.m[k] = c
	f.mu.Unlock()
	misses.Add(1)
	defer func() {
		if !c.ok {
			// fn panicked: unpoison. Delete only our own flight, so a
			// racing re-insertion under the same key is never clobbered.
			f.mu.Lock()
			if f.m[k] == c {
				delete(f.m, k)
			}
			f.mu.Unlock()
			close(c.done)
		}
	}()
	c.val = fn()
	c.ok = true
	close(c.done)
	return c.val
}

// await joins an existing flight: count the hit, wait for the value, and
// fall back to an independent computation if the flight died mid-air.
func (f *flight[V]) await(c *flightCall[V], hits, reused *obs.Counter, fn func() V) V {
	hits.Add(1)
	if c.carried {
		reused.Add(1)
	}
	<-c.done
	if c.ok {
		return c.val
	}
	return fn()
}

// rebind walks every completed entry, applying keep: entries it rejects
// are deleted, survivors are stamped carried. In-flight or poisoned entries
// are dropped. Returns the survivor count. Must only be called between
// window runs — it stamps entries without synchronization beyond the
// caller's single-threadedness.
func (f *flight[V]) rebind(keep func(k periodKey, v V) bool) int {
	kept := 0
	for k, c := range f.m {
		if !c.ok || !keep(k, c.val) {
			delete(f.m, k)
			continue
		}
		c.carried = true
		kept++
	}
	return kept
}

// propPath is the budget-independent timespan decomposition of one upstream
// path of a queuing period: everything propagate needs except the score
// scaling.
type propPath struct {
	path     *pathStats
	weight   float64 // n / total PreSet packets
	shares   []simtime.Duration
	srcShare simtime.Duration
	sum      simtime.Duration
}

// splitResult is the memoized Figure 7 decomposition at an upstream NF:
// the queuing period anchored at a PreSet last-arrival plus its local
// scores. nil period means "no queuing there". The local/input shares are
// linear in the caller's score, so only the ratio inputs are cached.
type splitResult struct {
	qp    *tracestore.QueuingPeriod
	ls    LocalScores
	total float64
}

// diagMemo is the per-(store, threshold) diagnosis cache.
type diagMemo struct {
	prop    flight[[]propPath]
	split   flight[*splitResult]
	periodJ flight[[]int]
}

// memoFor returns the engine's diagnosis cache for st, creating it when the
// engine sees st — or, for a stream's window store, this window of it —
// for the first time. Engines are typically bound to one store for their
// lifetime (the experiments' rank-scoring loops, the pipeline); a store
// switch just drops the old cache — unless the caller re-bound it
// explicitly with CarryMemo (the streaming path).
func (e *Engine) memoFor(st *tracestore.Store) *diagMemo {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.memoStore != st || e.memoGen != st.Generation() || e.memo == nil {
		e.bindMemo(st, &diagMemo{})
	}
	return e.memo
}

// bindMemo points the engine at st as it stands. A window store keeps its
// address from one window to the next, so the binding includes the store's
// generation: a cache is never served to a window it was not carried to.
// The caller holds e.mu.
func (e *Engine) bindMemo(st *tracestore.Store, memo *diagMemo) {
	e.memoStore, e.memoGen, e.memo = st, st.Generation(), memo
}

// ResetMemo binds the engine to st with a fresh, empty diagnosis cache,
// dropping anything carried. The streaming path calls it when carry is
// unsound: the window store was assembled from scratch, or a nonzero queue
// threshold makes cached periods depend on the (moving) window start.
func (e *Engine) ResetMemo(st *tracestore.Store) {
	e.mu.Lock()
	e.bindMemo(st, &diagMemo{})
	e.mu.Unlock()
}

// CarryMemo rebinds the engine's diagnosis cache onto the next window of
// the stream's window store: entries whose periods live entirely in
// retained history — at or after newStart, the new window's data start —
// survive as they are; the rest are evicted. Returns the survivor count.
// Call only between window runs, and only when the window store was
// brought up to date in place (tracestore.WindowRemap.Compatible) and the
// queue threshold is zero — otherwise ResetMemo.
//
// Validity argument, per table:
//   - prop/periodJ keys are (comp, period start, period end). A period
//     starting at or after the new data start saw identical arrivals and
//     reads in both windows (eviction removes only whole leading
//     segments), so its decomposition is unchanged, and the journey
//     references it lists still resolve to the same journeys.
//   - split keys are (comp, anchor). A surviving entry's period (when
//     non-nil) must itself start in retained history; a nil entry records
//     "no queuing period at this anchor", which eviction cannot falsify —
//     removing older arrivals never creates a period where none was — so
//     nil entries survive on the anchor check alone.
func (e *Engine) CarryMemo(st *tracestore.Store, newStart simtime.Time) int {
	e.mu.Lock()
	memo := e.memo
	if memo == nil {
		memo = &diagMemo{}
	}
	e.bindMemo(st, memo)
	e.mu.Unlock()
	kept := memo.prop.rebind(func(k periodKey, _ []propPath) bool {
		return k.start >= newStart
	})
	kept += memo.split.rebind(func(k periodKey, v *splitResult) bool {
		return k.end >= newStart && (v == nil || v.qp == nil || v.qp.Start >= newStart)
	})
	kept += memo.periodJ.rebind(func(k periodKey, _ []int) bool {
		return k.start >= newStart
	})
	return kept
}

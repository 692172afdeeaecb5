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
// The memo is sharded: keys hash onto power-of-two shards, each its own
// sync.Map, so workers touching different regions of the deployment graph
// never serialize on one global mutex — and a *completed* entry is served
// by a single atomic load from the sync.Map's read-only map, no lock at
// all. The mutex inside each sync.Map is only taken on the miss path
// (insertion), which happens once per key for the life of the window.
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

// memoShards is the shard count of every single-flight table. Power of two
// so shard selection is a mask; 64 shards keep the collision probability
// negligible at realistic worker counts (≤ GOMAXPROCS) while costing only
// a few KB per table.
const memoShards = 64

// shardOf mixes a periodKey into its shard index. The three fields are
// folded through distinct 64-bit odd multipliers (splitmix64-style) so
// nearby periods — same comp, adjacent times — spread across shards
// instead of clustering on one.
func shardOf(k periodKey) uint32 {
	h := uint64(uint32(k.comp)) * 0x9E3779B97F4A7C15
	h ^= uint64(k.start) * 0xBF58476D1CE4E5B9
	h ^= uint64(k.end) * 0x94D049BB133111EB
	h ^= h >> 29
	return uint32(h) & (memoShards - 1)
}

// flight is a sharded single-flight memo table keyed by periodKey:
// do(k, fn) returns fn()'s value for k, computing it at most once;
// concurrent callers of the same key wait for the first computation
// instead of repeating it.
type flight[V any] struct {
	shards [memoShards]flightShard[V]
}

// flightShard is one shard: a sync.Map of periodKey → *flightCall[V].
// sync.Map fits this workload exactly — per-key write-once, then read-many:
// after an entry is promoted to the read map, hits cost one atomic load.
type flightShard[V any] struct {
	m sync.Map
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
// carried over from a previous window). The fast path for a completed
// entry is a lock-free sync.Map load; the per-shard mutex inside sync.Map
// is only touched on first insertion of a key.
//
// Panic safety: when fn panics, the flight is unpoisoned — the key is
// removed so later callers recompute, and waiters already blocked on the
// flight are released and compute fn themselves instead of trusting a
// half-built value. The panic itself keeps unwinding to the per-victim
// containment boundary (resilience.Contain); do never swallows it.
func (f *flight[V]) do(k periodKey, hits, misses, reused *obs.Counter, fn func() V) V {
	sh := &f.shards[shardOf(k)]
	if v, ok := sh.m.Load(k); ok {
		return f.await(v.(*flightCall[V]), hits, reused, fn)
	}
	c := &flightCall[V]{done: make(chan struct{})}
	if prev, loaded := sh.m.LoadOrStore(k, c); loaded {
		return f.await(prev.(*flightCall[V]), hits, reused, fn)
	}
	misses.Add(1)
	defer func() {
		if !c.ok {
			// fn panicked: unpoison. CompareAndDelete (not Delete) so a
			// racing re-insertion under the same key is never clobbered.
			sh.m.CompareAndDelete(k, c)
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
	for i := range f.shards {
		sh := &f.shards[i]
		sh.m.Range(func(key, value any) bool {
			c := value.(*flightCall[V])
			if !c.ok {
				sh.m.Delete(key)
				return true
			}
			if !keep(key.(periodKey), c.val) {
				sh.m.Delete(key)
				return true
			}
			c.carried = true
			kept++
			return true
		})
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

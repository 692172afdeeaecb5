// Package par provides the bounded fan-out primitives the diagnosis
// pipeline's parallel stages share. Work items are claimed from an atomic
// counter so scheduling order never affects which goroutine computes which
// item; callers keep determinism by writing each result into a slot indexed
// by the item, never by completion order.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n <= 0 means GOMAXPROCS, and the
// count never exceeds the number of items.
func Workers(n, items int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > items {
		n = items
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Do runs fn(i) for every i in [0, n) across at most workers goroutines.
// With workers <= 1 it runs inline, byte-for-byte the sequential loop. fn
// must be safe for concurrent invocation with distinct i; Do returns only
// after every call has finished, so results written to slot i of a
// preallocated slice are visible to the caller.
func Do(n, workers int, fn func(i int)) {
	workers = Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// DoCtx is Do with cooperative cancellation: every worker checks ctx
// before claiming the next item, so a cancelled context stops the fan-out
// promptly — items already claimed finish (fn is never interrupted
// mid-call), unclaimed items are never started. Returns ctx.Err() when the
// run was cut short, nil when every item completed. Results for items that
// never ran are whatever the caller preallocated (zero values), so callers
// that return partial output must say so.
func DoCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return DoWorkersCtx(ctx, n, workers, func(_, i int) { fn(i) })
}

// DoWorkersCtx is DoCtx with worker identity: fn receives (worker, i) where
// worker is a stable index in [0, Workers(workers, n)). A worker processes
// every item it claims on the same goroutine, so callers may keep
// per-worker mutable state (long-lived scratch arenas) indexed by the
// worker id without synchronization: the diagnosis fan-out claims one
// victim per item and keeps one scratch arena per worker.
//
// Identity must never influence results, only reuse: output for a fixed
// input is required to be byte-identical for every workers value, which
// holds as long as fn(worker, i)'s observable effect depends only on i.
// With workers <= 1 the loop runs inline as worker 0, strictly in item
// order, with the same per-item ctx checks as the parallel path.
func DoWorkersCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	workers = Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

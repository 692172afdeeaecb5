package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"microscope/internal/obs"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// TestFlightComputesOnce: any number of concurrent and sequential do()
// calls for one key run fn exactly once; everyone sees the first value.
func TestFlightComputesOnce(t *testing.T) {
	var f flight[int]
	k := periodKey{comp: 3, start: 10, end: 20}
	var calls atomic.Int32

	const goroutines = 32
	results := make([]int, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g] = f.do(k, nil, nil, nil, func() int {
				return int(calls.Add(1)) * 100
			})
		}(g)
	}
	close(start)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for g, r := range results {
		if r != 100 {
			t.Fatalf("goroutine %d saw %d, want 100", g, r)
		}
	}
	// A later call is a pure cache hit.
	if v := f.do(k, nil, nil, nil, func() int { t.Fatal("recomputed"); return 0 }); v != 100 {
		t.Fatalf("cached value = %d", v)
	}
}

// TestFlightDistinctKeys: different keys compute independently, even keys
// that differ in one field only.
func TestFlightDistinctKeys(t *testing.T) {
	var f flight[int]
	keys := []periodKey{
		{comp: 1, start: 1, end: 2},
		{comp: 2, start: 1, end: 2},
		{comp: 1, start: 0, end: 2},
		{comp: 1, start: 1, end: 3},
	}
	for i, k := range keys {
		if v := f.do(k, nil, nil, nil, func() int { return 10 + i }); v != 10+i {
			t.Fatalf("key %+v conflated: got %d, want %d", k, v, 10+i)
		}
	}
	for i, k := range keys {
		if v := f.do(k, nil, nil, nil, func() int { return -1 }); v != 10+i {
			t.Fatalf("key %+v lost its value: got %d, want %d", k, v, 10+i)
		}
	}
}

// TestFlightSlowComputationDoesNotBlockOtherKeys: the table lock is not
// held across fn, so a slow computation on one key never blocks another
// key.
func TestFlightSlowComputationDoesNotBlockOtherKeys(t *testing.T) {
	var f flight[int]
	k1 := periodKey{comp: 1, start: 1, end: 2}
	k2 := periodKey{comp: 2, start: 1, end: 2}

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.do(k1, nil, nil, nil, func() int {
			close(entered)
			<-release
			return 1
		})
	}()
	<-entered
	// k1's fn is in flight and parked. k2 must proceed.
	if v := f.do(k2, nil, nil, nil, func() int { return 2 }); v != 2 {
		t.Fatalf("second key blocked or conflated: %d", v)
	}
	close(release)
	<-done
}

// TestFlightPanicUnpoisons: a panicking fn leaves no poisoned entry —
// concurrent waiters fall back to their own computation, and later callers
// recompute fresh.
func TestFlightPanicUnpoisons(t *testing.T) {
	var f flight[int]
	k := periodKey{comp: 9, start: 5, end: 6}

	inFlight := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("panic swallowed by flight.do")
			}
			close(panicked)
		}()
		f.do(k, nil, nil, nil, func() int {
			close(inFlight)
			<-release
			panic("chaos")
		})
	}()
	<-inFlight

	// This waiter blocks on the in-flight call, sees it die, and computes
	// its own value.
	waiterDone := make(chan int, 1)
	go func() {
		waiterDone <- f.do(k, nil, nil, nil, func() int { return 42 })
	}()
	close(release)
	<-panicked
	if v := <-waiterDone; v != 42 {
		t.Fatalf("waiter after panic got %d, want its own 42", v)
	}
	// The key is unpoisoned: a later caller computes fresh (or reuses the
	// waiter's committed value — both are sound; what it must not do is
	// hang or observe the panicked flight).
	v := f.do(k, nil, nil, nil, func() int { return 7 })
	if v != 42 && v != 7 {
		t.Fatalf("post-panic value = %d", v)
	}
}

// TestFlightReadContention: completed entries are served under the table
// lock, held only for the lookup. The test hammers a small hot set from
// many goroutines while cold keys stream in on the side, and checks every
// read is correct and every call is accounted as exactly one hit or miss.
func TestFlightReadContention(t *testing.T) {
	var f flight[int]
	reg := obs.New()
	hits, misses := reg.Counter("t_hits"), reg.Counter("t_misses")

	// Seed the hot set; each value encodes its key.
	const hot = 8
	for i := 0; i < hot; i++ {
		k := periodKey{comp: tracestore.CompID(i), start: 1, end: 2}
		f.do(k, hits, misses, nil, func() int { return 1000 + i })
	}

	const goroutines = 16
	const reads = 2000
	var wg sync.WaitGroup
	var bad atomic.Int32
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < reads; i++ {
				ki := (g + i) % hot
				k := periodKey{comp: tracestore.CompID(ki), start: 1, end: 2}
				if v := f.do(k, hits, misses, nil, func() int { return -1 }); v != 1000+ki {
					bad.Add(1)
				}
				if i%64 == 0 {
					// A cold insert on the side must not disturb hot reads.
					ck := periodKey{comp: tracestore.CompID(100 + g), start: simtime.Time(i), end: simtime.Time(i + 1)}
					f.do(ck, hits, misses, nil, func() int { return 0 })
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d contended reads returned wrong values", n)
	}
	total := hits.Value() + misses.Value()
	want := int64(hot + goroutines*(reads+(reads+63)/64))
	if total != want {
		t.Fatalf("hit/miss accounting lost calls: %d + %d = %d, want %d",
			hits.Value(), misses.Value(), total, want)
	}
}

// TestFlightRebind: rebind keeps entries the callback accepts (marking
// them carried, so later hits count as reused), evicts the rest, and drops
// never-completed entries unconditionally.
func TestFlightRebind(t *testing.T) {
	var f flight[int]
	for i := 0; i < 10; i++ {
		k := periodKey{comp: 1, start: simtime.Time(i), end: simtime.Time(i + 1)}
		f.do(k, nil, nil, nil, func() int { return i })
	}
	kept := f.rebind(func(k periodKey, _ int) bool { return k.start >= 5 })
	if kept != 5 {
		t.Fatalf("rebind kept %d entries, want 5", kept)
	}
	reg := obs.New()
	hits, misses, reused := reg.Counter("t_hits"), reg.Counter("t_misses"), reg.Counter("t_reused")
	for i := 0; i < 10; i++ {
		k := periodKey{comp: 1, start: simtime.Time(i), end: simtime.Time(i + 1)}
		v := f.do(k, hits, misses, reused, func() int { return -i })
		if i < 5 {
			if v != -i {
				t.Fatalf("evicted key %d not recomputed: %d", i, v)
			}
		} else if v != i {
			t.Fatalf("kept key %d lost its value: %d", i, v)
		}
	}
	if hits.Value() != 5 || misses.Value() != 5 {
		t.Fatalf("hits=%d misses=%d, want 5/5", hits.Value(), misses.Value())
	}
	// Every surviving entry was carried across the rebind: its hits count
	// as reused (the microscope_stream_memo_reused_hits_total signal).
	if reused.Value() != 5 {
		t.Fatalf("reused=%d, want 5", reused.Value())
	}
	// A fresh computation after the rebind is not "carried".
	f.do(periodKey{comp: 2, start: 0, end: 1}, hits, misses, reused, func() int { return 1 })
	f.do(periodKey{comp: 2, start: 0, end: 1}, hits, misses, reused, func() int { return 1 })
	if reused.Value() != 5 {
		t.Fatalf("fresh post-rebind entry counted as reused: %d", reused.Value())
	}
}

// Package leakcheck is a test helper for goroutine lifetimes: a test that
// starts goroutines must end with them gone. Check snapshots the live
// goroutines when called and registers a cleanup that diffs a fresh
// snapshot against it,
// retrying over a grace period so goroutines that are mid-exit (a feed
// loop observing its closed channel, a drained hook runner) are not
// false positives. Anything still running after the grace period fails
// the test with its full stack.
//
// Usage, first line of a test whose code spawns goroutines:
//
//	leakcheck.Check(t)
//
// Goroutines are identified by ID, so everything alive before the test
// body (the test runner, timers, pre-existing pollers) is excluded by
// construction; only goroutines born during the test can be reported.
package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// grace bounds how long the cleanup waits for straggler goroutines to
// finish before declaring a leak.
const grace = 5 * time.Second

// Check arms the leak detector for the rest of the test.
func Check(t testing.TB) {
	t.Helper()
	before := snapshot()
	t.Cleanup(func() {
		deadline := time.Now().Add(grace) //mslint:allow nondet test-only leak deadline, not diagnosis output
		for {
			leaked := diff(snapshot(), before)
			if len(leaked) == 0 {
				return
			}
			//mslint:allow nondet test-only leak deadline, not diagnosis output
			if time.Now().After(deadline) {
				t.Errorf("leakcheck: %d goroutine(s) leaked by this test:\n\n%s",
					len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

package pipeline_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microscope/internal/core"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
	"microscope/internal/simtime"
)

// countdownCtx cancels itself after a fixed number of Err observations — a
// deterministic stand-in for a user cancelling mid-run, with none of the
// timing flakiness of a real timer. Thread-safe, so it also drives the
// parallel worker pool.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdown(allowed int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(allowed))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Value(key any) any           { return c.Context.Value(key) }

// TestRunContextCancelMidDiagnose pins the cancellation contract: a
// context cancelled partway through the per-victim fan-out stops the run
// promptly, the error names the diagnose stage and wraps context.Canceled,
// and the partial Result keeps everything completed before the cut —
// victims selected, patterns never attempted.
func TestRunContextCancelMidDiagnose(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 16-NF topology; skipped in -short")
	}
	dur := 12 * simtime.Millisecond
	if raceEnabled {
		dur = 8 * simtime.Millisecond
	}
	tr := buildTrace(11, dur)
	cfg := pipeline.Config{
		Diagnosis: core.Config{MaxVictims: 200, Workers: 1},
		Patterns:  patterns.Config{Workers: 1},
	}

	full, err := pipeline.RunContext(context.Background(), tr, cfg)
	if err != nil {
		t.Fatalf("uncancelled run errored: %v", err)
	}
	n := len(full.Victims)
	if n < 4 {
		t.Fatalf("workload produced only %d victims; cancel point would be ambiguous", n)
	}

	// Sequentially (Workers=1) the run checks the context once per stage
	// boundary (reconstruct, index, victims, diagnose = 4) and then once
	// per victim, so allowing 4+n/2 checks cancels deterministically in
	// the middle of the diagnose fan-out.
	res, err := pipeline.RunContext(newCountdown(4+n/2), tr, cfg)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "diagnose") {
		t.Errorf("error %q does not name the diagnose stage", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil Result")
	}
	if len(res.Victims) != n {
		t.Errorf("partial result lost the victim selection: %d vs %d", len(res.Victims), n)
	}
	if res.Patterns != nil || res.Relations != 0 {
		t.Error("patterns stage ran after cancellation")
	}
	// Slots past the cancel point are zero-valued, earlier ones are real.
	if len(res.Diagnoses) != n {
		t.Fatalf("partial diagnoses length %d, want %d", len(res.Diagnoses), n)
	}
	if res.Diagnoses[0].Victim.Comp == "" {
		t.Error("first diagnosis should have completed before the cancel point")
	}
	if last := res.Diagnoses[n-1]; last.Victim.Comp != "" || last.Causes != nil {
		t.Error("last diagnosis slot should be zero-valued after mid-stage cancel")
	}

	// The same cancellation through the parallel pool: exact slots are
	// timing-dependent, but the error contract is identical.
	cfg.Diagnosis.Workers, cfg.Patterns.Workers = 8, 8
	res, err = pipeline.RunContext(newCountdown(4+n/2), tr, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel cancel: error %v does not wrap context.Canceled", err)
	}
	if res == nil || res.Patterns != nil {
		t.Error("parallel cancel: patterns stage must not run")
	}

	// A context cancelled before the run starts stops at the first stage.
	res, err = pipeline.RunContext(newCountdown(0), tr, cfg)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "reconstruct") {
		t.Errorf("pre-cancelled run: err=%v, want reconstruct-stage cancellation", err)
	}
	if res == nil || res.Store != nil {
		t.Error("pre-cancelled run should return an empty, non-nil Result")
	}
}

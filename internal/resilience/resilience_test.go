package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"microscope/internal/leakcheck"
	"microscope/internal/obs"
)

func TestLevelString(t *testing.T) {
	want := map[Level]string{
		Full: "full", NoPatterns: "no-patterns", VictimsOnly: "victims-only", Skipped: "skipped",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), s)
		}
	}
	if got := Level(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown level renders %q", got)
	}
}

func TestLadderDecide(t *testing.T) {
	// A ring of 800 puts the record rungs at 100, 200 and 400.
	const ring = 800
	cases := []struct {
		records, backlog, mem int
		want                  Level
	}{
		{50, 0, 0, Full},
		{100, 0, 0, Full}, // a rung fires above its threshold, not at it
		{150, 0, 0, NoPatterns},
		{250, 0, 0, VictimsOnly},
		{500, 0, 0, Skipped},
		{50, 1, 0, Full},
		{50, 2, 0, NoPatterns},   // backlog escalates one step
		{50, 4, 0, VictimsOnly},  // two steps
		{150, 4, 0, Skipped},     // clamped at the top rung
		{50, 0, 1, NoPatterns},   // memory soft watermark
		{150, 2, 1, Skipped},     // combined pressure clamps
		{1 << 20, 0, 0, Skipped}, // absurd window always sheds
	}
	for _, c := range cases {
		if got := Decide(ring, c.records, c.backlog, c.mem); got != c.want {
			t.Errorf("Decide(%d, %d, %d, %d) = %v, want %v", ring, c.records, c.backlog, c.mem, got, c.want)
		}
	}
	// An unbounded ring never degrades on records or backlog...
	if got := Decide(0, 1<<30, 100, 0); got != Full {
		t.Errorf("unbounded ring degraded to %v", got)
	}
	// ...but memory escalation still applies when the watcher reports steps.
	if got := Decide(0, 10, 0, 2); got != VictimsOnly {
		t.Errorf("mem steps on an unbounded ring = %v, want victims-only", got)
	}
	// A fraction of a small ring that rounds to zero arms no rung: a ring
	// of 4 skips above 2 records and has no no-patterns rung.
	for records, want := range map[int]Level{1: Full, 2: VictimsOnly, 3: Skipped} {
		if got := Decide(4, records, 0, 0); got != want {
			t.Errorf("Decide(4, %d) = %v, want %v", records, got, want)
		}
	}
}

// TestAutoLadderScalesWithRing: the ladder is derived from the ring alone —
// its record rungs sit at 1/8, 1/4 and 1/2 of whatever capacity the
// operator chose.
func TestAutoLadderScalesWithRing(t *testing.T) {
	for _, ring := range []int{800, 8000, 80000} {
		for _, c := range []struct {
			records int
			want    Level
		}{
			{ring / 8, Full},
			{ring/8 + 1, NoPatterns},
			{ring/4 + 1, VictimsOnly},
			{ring/2 + 1, Skipped},
		} {
			if got := Decide(ring, c.records, 0, 0); got != c.want {
				t.Errorf("Decide(%d, %d) = %v, want %v", ring, c.records, got, c.want)
			}
		}
	}
}

func TestShedPolicyParse(t *testing.T) {
	for s, want := range map[string]ShedPolicy{
		"drop-oldest": ShedDropOldest, "": ShedDropOldest, "oldest": ShedDropOldest,
		"reject-new": ShedRejectNew, "REJECT": ShedRejectNew,
	} {
		got, err := ParseShedPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseShedPolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseShedPolicy("banana"); err == nil {
		t.Error("bad policy accepted")
	}
	if ShedDropOldest.String() != "drop-oldest" || ShedRejectNew.String() != "reject-new" {
		t.Error("policy strings changed")
	}
}

func TestContainConvertsPanic(t *testing.T) {
	leakcheck.Check(t)
	err := Contain("stage:test", func() { panic("boom") })
	if err == nil {
		t.Fatal("panic not contained")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *PanicError", err)
	}
	if pe.Scope != "stage:test" || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("panic error: %+v", pe)
	}
	if !IsPanic(err) || IsPanic(errors.New("x")) || IsPanic(nil) {
		t.Error("IsPanic misclassifies")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("error text %q", err)
	}
	if err := Contain("ok", func() {}); err != nil {
		t.Errorf("clean fn returned %v", err)
	}
	// Wrapped once more (as the pipeline does), it still unwraps.
	if !IsPanic(fmt.Errorf("stage failed: %w", err2())) {
		t.Error("wrapped panic error lost its identity")
	}
}

func err2() error { return Contain("w", func() { panic(42) }) }

func TestRetryTransientThenSuccess(t *testing.T) {
	var waits []time.Duration
	p := RetryPolicy{MaxAttempts: 5, Base: time.Millisecond, Max: 8 * time.Millisecond,
		Seed: 7, Sleep: func(d time.Duration) { waits = append(waits, d) }}
	calls := 0
	err := p.Run(context.Background(), "read", func() error {
		calls++
		if calls < 3 {
			return Transient(errors.New("stall"))
		}
		return nil
	}, nil)
	if err != nil || calls != 3 || len(waits) != 2 {
		t.Fatalf("err=%v calls=%d waits=%v", err, calls, waits)
	}
	// Exponential shape with jitter: each wait sits within (1-J, 1]× its
	// nominal backoff and never exceeds the cap.
	for i, w := range waits {
		nominal := time.Millisecond << uint(i)
		if w > nominal || w < time.Duration(float64(nominal)*0.7) {
			t.Errorf("wait %d = %v outside jitter band of %v", i, w, nominal)
		}
	}
}

func TestRetryDeterministicSchedule(t *testing.T) {
	run := func() []time.Duration {
		var waits []time.Duration
		p := RetryPolicy{MaxAttempts: 4, Base: time.Millisecond, Seed: 42,
			Sleep: func(d time.Duration) { waits = append(waits, d) }}
		p.Run(context.Background(), "op", func() error { return Transient(errors.New("x")) }, nil)
		return waits
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("expected 3 backoffs, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different schedules: %v vs %v", a, b)
		}
	}
}

func TestRetryPermanentErrorFailsFast(t *testing.T) {
	p := RetryPolicy{Sleep: func(time.Duration) { t.Fatal("slept on a permanent error") }}
	perm := errors.New("corrupt header")
	calls := 0
	err := p.Run(context.Background(), "decode", func() error { calls++; return perm }, nil)
	if !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryExhaustionAndContext(t *testing.T) {
	retries := 0
	p := RetryPolicy{MaxAttempts: 3, Base: time.Microsecond, Sleep: func(time.Duration) {}}
	err := p.Run(context.Background(), "read", func() error { return Transient(errors.New("stall")) },
		func(int, time.Duration) { retries++ })
	if err == nil || !IsTransient(err) || retries != 2 {
		t.Fatalf("exhaustion: err=%v retries=%d", err, retries)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("exhaustion error %q lacks attempt count", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = p.Run(ctx, "read", func() error { t.Fatal("fn ran after cancel"); return nil }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
}

func TestMemWatcherDisabled(t *testing.T) {
	var w MemWatcher
	if w.Enabled() || w.Steps() != 0 {
		t.Error("zero watcher should be off")
	}
	var nilw *MemWatcher
	if nilw.Enabled() || nilw.Steps() != 0 {
		t.Error("nil watcher should be off")
	}
}

func TestMemWatcherWatermarks(t *testing.T) {
	// A heap held at least 32 MiB by a live ballast sits between half of
	// a limit of 4/3 of it and the limit: exactly one escalation step.
	ballast := make([]byte, 32<<20)
	reg := obs.New()
	g := reg.Gauge("heap")
	probe := &MemWatcher{Limit: 1 << 50, Gauge: g}
	if got := probe.Steps(); got != 0 {
		t.Fatalf("steps under a huge limit = %d, want 0", got)
	}
	if g.Value() < int64(len(ballast)) {
		t.Fatalf("heap sample %d below the live ballast", g.Value())
	}
	w := &MemWatcher{Limit: g.Value() * 4 / 3}
	if got := w.Steps(); got != 1 {
		t.Fatalf("steps between half the limit and the limit = %d, want 1", got)
	}
	// A 1-byte limit is always reached: two steps.
	if got := (&MemWatcher{Limit: 1}).Steps(); got != 2 {
		t.Fatalf("limit steps = %d, want 2", got)
	}
	runtime.KeepAlive(ballast)
}

func TestConfigEnabled(t *testing.T) {
	var zero Config
	if zero.Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(Config{ContainPanics: true}).Enabled() || !(Config{RingCapacity: 1}).Enabled() ||
		!(Config{MemHardBytes: 1}).Enabled() {
		t.Error("containment, a bounded ring or a heap limit alone should enable")
	}
	if (Config{WindowDeadline: time.Second}).Enabled() == false {
		t.Error("deadline alone should enable")
	}
}

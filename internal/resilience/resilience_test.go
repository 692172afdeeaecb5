package resilience

import (
	"context"
	"errors"
	"fmt"
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
	lc := LadderConfig{
		SoftRecords: 100, HardRecords: 200, MaxRecords: 400,
		SoftBacklog: 2, HardBacklog: 4,
	}
	cases := []struct {
		records, backlog, mem int
		want                  Level
	}{
		{50, 0, 0, Full},
		{150, 0, 0, NoPatterns},
		{250, 0, 0, VictimsOnly},
		{500, 0, 0, Skipped},
		{50, 2, 0, NoPatterns},   // backlog escalates one step
		{50, 4, 0, VictimsOnly},  // two steps
		{150, 4, 0, Skipped},     // clamped at the top rung
		{50, 0, 1, NoPatterns},   // memory soft watermark
		{150, 2, 1, Skipped},     // combined pressure clamps
		{1 << 20, 0, 0, Skipped}, // absurd window always sheds
	}
	for _, c := range cases {
		if got := lc.Decide(c.records, c.backlog, c.mem); got != c.want {
			t.Errorf("Decide(%d, %d, %d) = %v, want %v", c.records, c.backlog, c.mem, got, c.want)
		}
	}
	// Zero config never degrades, whatever the pressure.
	var off LadderConfig
	if off.Enabled() {
		t.Error("zero ladder reports enabled")
	}
	if got := off.Decide(1<<30, 100, 0); got != Full {
		t.Errorf("disabled ladder degraded to %v", got)
	}
	// But memory escalation still applies when the watcher reports steps.
	if got := off.Decide(10, 0, 2); got != VictimsOnly {
		t.Errorf("mem steps on disabled ladder = %v, want victims-only", got)
	}
}

func TestAutoLadderScalesWithRing(t *testing.T) {
	lc := AutoLadder(8000)
	if lc.SoftRecords != 1000 || lc.HardRecords != 2000 || lc.MaxRecords != 4000 {
		t.Errorf("AutoLadder rungs: %+v", lc)
	}
	if !lc.Enabled() {
		t.Error("auto ladder disabled")
	}
	if AutoLadder(0).Enabled() {
		t.Error("AutoLadder(0) should be disabled")
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
	// A 1-byte soft watermark is always exceeded; a huge hard watermark
	// never is: the watcher must report exactly one escalation step.
	reg := obs.New()
	g := reg.Gauge("heap")
	w := &MemWatcher{SoftBytes: 1, HardBytes: 1 << 50, Gauge: g}
	if got := w.Steps(); got != 1 {
		t.Fatalf("soft watermark steps = %d, want 1", got)
	}
	if g.Value() <= 0 {
		t.Error("heap sample not recorded")
	}
	w2 := &MemWatcher{SoftBytes: 1, HardBytes: 1}
	if got := w2.Steps(); got != 2 {
		t.Fatalf("hard watermark steps = %d, want 2", got)
	}
}

func TestConfigEnabledAndAuto(t *testing.T) {
	var zero Config
	if zero.Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(Config{Ladder: AutoLadder(1 << 16)}).Enabled() || (Config{Ladder: AutoLadder(0)}).Enabled() {
		t.Error("an AutoLadder enables exactly when the ring is bounded")
	}
	if !(Config{ContainPanics: true}).Enabled() || !(Config{RingCapacity: 1}).Enabled() {
		t.Error("containment or a bounded ring alone should enable")
	}
	if (Config{WindowDeadline: time.Second}).Enabled() == false {
		t.Error("deadline alone should enable")
	}
}

package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"microscope/internal/leakcheck"
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

func TestRingBoundedAppendAndDrop(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 4; i++ {
		if !r.Append(i) {
			t.Fatalf("append %d refused below capacity", i)
		}
	}
	if !r.Full() || r.Occupancy() != 1 {
		t.Fatalf("ring should be full: len=%d occ=%v", r.Len(), r.Occupancy())
	}
	if r.Append(99) {
		t.Fatal("append succeeded on a full ring")
	}
	r.DropFront(2)
	if r.Len() != 2 || r.At(0) != 2 || r.At(1) != 3 {
		t.Fatalf("after DropFront: len=%d head=%v", r.Len(), r.At(0))
	}
	// Wrap-around: append reuses the freed slots.
	if !r.Append(4) || !r.Append(5) {
		t.Fatal("append refused after drop")
	}
	for i, want := range []int{2, 3, 4, 5} {
		if r.At(i) != want {
			t.Errorf("At(%d) = %d, want %d", i, r.At(i), want)
		}
	}
}

func TestRingUnboundedGrows(t *testing.T) {
	r := NewRing[int](0)
	const n = 10000
	for i := 0; i < n; i++ {
		if !r.Append(i) {
			t.Fatalf("unbounded ring refused append %d", i)
		}
	}
	if r.Len() != n || r.Full() || r.Occupancy() != 0 {
		t.Fatalf("unbounded ring state: len=%d", r.Len())
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		if r.At(i) != i {
			t.Errorf("At(%d) = %d", i, r.At(i))
		}
	}
}

func TestRingInsertKeepsOrder(t *testing.T) {
	r := NewRing[int](0)
	for _, v := range []int{10, 20, 40} {
		r.Append(v)
	}
	// Force a wrapped layout first: drop and refill.
	r.DropFront(1)
	r.Append(50) // contents: 20 40 50
	i := r.Search(func(v int) bool { return v > 30 })
	if i != 1 {
		t.Fatalf("Search = %d, want 1", i)
	}
	if !r.Insert(i, 30) {
		t.Fatal("insert refused")
	}
	got := ringItems(r)
	want := []int{20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after insert: %v, want %v", got, want)
		}
	}
	// Insert at the very front and very back.
	r.Insert(0, 5)
	r.Insert(r.Len(), 60)
	got = ringItems(r)
	want = []int{5, 20, 30, 40, 50, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("front/back insert: %v, want %v", got, want)
		}
	}
}

// ringItems reads the ring's items in logical order.
func ringItems(r *Ring[int]) []int {
	out := make([]int, r.Len())
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}

// TestRingSpans: Spans hands out the ring's own storage — no copy — as at
// most two runs that, read in order, are exactly items [from, to),
// wherever the ring has wrapped.
func TestRingSpans(t *testing.T) {
	r := NewRing[int](0)
	next := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 5+round%7; i++ {
			r.Append(next)
			next++
		}
		r.DropFront(round % 5)
		for from := 0; from <= r.Len(); from++ {
			for to := from; to <= r.Len(); to++ {
				a, b := r.Spans(from, to)
				if len(a)+len(b) != to-from || (len(a) == 0 && len(b) != 0) {
					t.Fatalf("Spans(%d,%d) = %v, %v", from, to, a, b)
				}
				for i, v := range append(append([]int(nil), a...), b...) {
					if v != r.At(from+i) {
						t.Fatalf("Spans(%d,%d) = %v, %v: item %d is %d, want %d", from, to, a, b, i, v, r.At(from+i))
					}
				}
			}
		}
	}
	// The spans alias the ring: a write through one is visible in it.
	if a, _ := r.Spans(0, 1); len(a) == 1 {
		a[0] = -7
		if r.At(0) != -7 {
			t.Fatal("Spans copied instead of aliasing the ring")
		}
	}
	wrapped := false
	for from := 0; from < r.Len(); from++ {
		if _, b := r.Spans(from, r.Len()); len(b) > 0 {
			wrapped = true
		}
	}
	if !wrapped {
		t.Fatal("the ring never wrapped: the two-span case went untested")
	}
}

func TestRingInsertRespectsCapacity(t *testing.T) {
	r := NewRing[int](2)
	r.Append(1)
	r.Append(3)
	if r.Insert(1, 2) {
		t.Fatal("insert succeeded on a full bounded ring")
	}
}

func TestRingDropFrontReleasesSlots(t *testing.T) {
	r := NewRing[[]byte](4)
	for i := 0; i < 4; i++ {
		r.Append(make([]byte, 8))
	}
	r.DropFront(4)
	if r.Len() != 0 {
		t.Fatal("drop did not empty ring")
	}
	// The backing slots must have been zeroed (payloads released). Reach
	// into the representation deliberately: this is the memory-ceiling
	// guarantee.
	for i, s := range r.buf {
		if s != nil {
			t.Fatalf("slot %d still references its payload after DropFront", i)
		}
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
	if nilw.Enabled() || nilw.HeapBytes() != 0 {
		t.Error("nil watcher should be off")
	}
}

func TestMemWatcherWatermarks(t *testing.T) {
	// A 1-byte soft watermark is always exceeded; a huge hard watermark
	// never is: the watcher must report exactly one escalation step.
	w := &MemWatcher{SoftBytes: 1, HardBytes: 1 << 50, Every: 1}
	if got := w.Steps(); got != 1 {
		t.Fatalf("soft watermark steps = %d, want 1", got)
	}
	if w.HeapBytes() <= 0 {
		t.Error("heap sample not recorded")
	}
	w2 := &MemWatcher{SoftBytes: 1, HardBytes: 1, Every: 1}
	if got := w2.Steps(); got != 2 {
		t.Fatalf("hard watermark steps = %d, want 2", got)
	}
	// Sampling interval: with Every=1000 the second call reuses the
	// cached reading rather than re-sampling.
	w3 := &MemWatcher{SoftBytes: 1, Every: 1000}
	w3.Steps()
	h := w3.HeapBytes()
	w3.Steps()
	if w3.HeapBytes() != h {
		t.Error("watcher re-sampled inside its interval")
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

// TestRingAppendRunMatchesAppend: AppendRun leaves a ring holding what
// appending its items one by one does — across wrap-around, growth from
// empty, and a bounded ring's limit, where a run that does not fit is
// refused whole — and DropFront, clearing its spans in bulk, still zeroes
// every slot it releases.
func TestRingAppendRunMatchesAppend(t *testing.T) {
	for _, capacity := range []int{0, 100} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			run, ref := NewRing[[]int](capacity), NewRing[[]int](capacity)
			next, wrapped, grew, refused := 0, false, 0, false
			for round := 0; round < 300; round++ {
				vs := make([][]int, (round*7)%23)
				for i := range vs {
					vs[i] = []int{next}
					next++
				}
				fits := capacity == 0 || ref.Len()+len(vs) <= capacity
				if got := run.AppendRun(vs); got != fits {
					t.Fatalf("round %d: AppendRun of %d onto %d = %v, want %v", round, len(vs), run.Len(), got, fits)
				}
				if fits {
					for _, v := range vs {
						ref.Append(v)
					}
				} else {
					refused = true
				}
				if n := len(run.buf); n > grew {
					grew = n
				}
				if _, b := run.Spans(0, run.Len()); len(b) > 0 {
					wrapped = true
				}
				if run.Len() != ref.Len() {
					t.Fatalf("round %d: %d items, want %d", round, run.Len(), ref.Len())
				}
				for i := 0; i < ref.Len(); i++ {
					if run.At(i)[0] != ref.At(i)[0] {
						t.Fatalf("round %d: item %d is %d, want %d", round, i, run.At(i)[0], ref.At(i)[0])
					}
				}
				k := (round * 5) % 17
				run.DropFront(k)
				ref.DropFront(k)
				live := make(map[int]bool)
				for i := 0; i < run.Len(); i++ {
					live[run.idx(i)] = true
				}
				for i, s := range run.buf {
					if !live[i] && s != nil {
						t.Fatalf("round %d: released slot %d still references its payload", round, i)
					}
				}
			}
			if !wrapped || grew < 64 || (capacity > 0 && !refused) {
				t.Fatalf("schedule too gentle: wrapped=%v, grew to %d, refused=%v", wrapped, grew, refused)
			}
		})
	}
}

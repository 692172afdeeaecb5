package nfsim

import (
	"testing"

	"microscope/internal/simtime"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(300, func() { order = append(order, 3) })
	e.At(100, func() { order = append(order, 1) })
	e.At(200, func() { order = append(order, 2) })
	e.Run(simtime.Time(1000))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order: got %v", order)
	}
	if e.Steps() != 3 {
		t.Errorf("steps: got %d", e.Steps())
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(50, func() { order = append(order, i) })
	}
	e.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("ties must run in insertion order: got %v", order)
		}
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(100, func() { ran++ })
	e.At(200, func() { ran++ })
	e.Run(150)
	if ran != 1 {
		t.Errorf("events <= until should run: got %d", ran)
	}
	if e.Now() != 100 {
		t.Errorf("now should be last event time: got %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending: got %d", e.Pending())
	}
	e.Run(200)
	if ran != 2 {
		t.Errorf("second run: got %d", ran)
	}
}

func TestEngineAdvancesOnIdle(t *testing.T) {
	e := NewEngine()
	e.Run(500)
	if e.Now() != 500 {
		t.Errorf("idle engine should advance clock: got %v", e.Now())
	}
}

func TestEngineEventsCanSchedule(t *testing.T) {
	e := NewEngine()
	var hits []simtime.Time
	var recur func()
	recur = func() {
		hits = append(hits, e.Now())
		if len(hits) < 5 {
			e.After(10, recur)
		}
	}
	e.At(0, recur)
	e.Run(1000)
	if len(hits) != 5 {
		t.Fatalf("hits: got %d", len(hits))
	}
	for i, h := range hits {
		if h != simtime.Time(i*10) {
			t.Errorf("hit %d at %v", i, h)
		}
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run(200)
}

func TestEngineAfterClampsNegative(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(100, func() {
		e.After(-50, func() { ran = true })
	})
	e.Run(200)
	if !ran {
		t.Error("After with negative duration should run at now")
	}
}

// TestEngineDoesNotAllocate holds the event loop to zero allocations per
// event once the heap has grown to its working size: events are stored by
// value in a typed heap, and a pre-bound callback is not a new closure.
func TestEngineDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	ran := 0
	fn := func() { ran++ }
	cycle := func() {
		for i := 0; i < 64; i++ {
			e.After(simtime.Duration(64-i), fn)
		}
		e.Run(e.Now().Add(1000))
	}
	cycle() // warm-up: grow the heap
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("%.1f allocations per 64 events, want 0", allocs)
	}
	if ran != 64*102 {
		t.Errorf("ran %d events, want %d", ran, 64*102)
	}
}

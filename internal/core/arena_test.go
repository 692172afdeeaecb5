package core

import (
	"reflect"
	"sync"
	"testing"

	"microscope/internal/obs"
	"microscope/internal/simtime"
)

// TestArenaPerWorkerNotPerVictim: a parallel diagnosis run acquires exactly
// one scratch arena per worker — not one per victim — and hands them all
// back to the engine, whose spare list then holds no more than a run's
// workers. The scratch counters (new + reused) tally every acquisition, so
// their sum is the acquisition count.
func TestArenaPerWorkerNotPerVictim(t *testing.T) {
	st, _ := buildDAGStore(t, true, false)

	run := func(workers int) (acquisitions int64, victims int) {
		reg := obs.New()
		eng := NewEngine(Config{Workers: workers, Obs: reg})
		vs := eng.FindVictims(st)
		if len(vs) == 0 {
			t.Fatal("no victims")
		}
		eng.DiagnoseVictims(st, vs)
		snap := reg.TakeSnapshot()
		fresh := snap.Counters["microscope_diag_scratch_new_total"]
		if n := len(eng.spare); int64(n) != fresh || n > workers {
			t.Errorf("workers=%d: engine keeps %d spare arenas after a run, want the %d it allocated (at most %d)",
				workers, n, fresh, workers)
		}
		// A second run allocates nothing: every arena comes from the spares.
		eng.DiagnoseVictims(st, vs)
		if again := reg.TakeSnapshot().Counters["microscope_diag_scratch_new_total"]; again != fresh {
			t.Errorf("workers=%d: second run allocated %d arenas", workers, again-fresh)
		}
		return fresh + snap.Counters["microscope_diag_scratch_reused_total"], len(vs)
	}

	// FindVictims builds a diagnoser too but never acquires an arena, so
	// the counters reflect DiagnoseVictims alone.
	acq, victims := run(1)
	if acq != 1 {
		t.Errorf("sequential run acquired %d arenas, want 1", acq)
	}
	acq, victims = run(4)
	resolved := int64(4)
	if v := int64(victims); v < resolved {
		resolved = v
	}
	if acq < 1 || acq > resolved {
		t.Errorf("parallel run acquired %d arenas for %d victims, want 1..%d (per worker)",
			acq, victims, resolved)
	}
	if int64(victims) > resolved && acq >= int64(victims) {
		t.Errorf("arena acquisitions (%d) scale with victims (%d), not workers", acq, victims)
	}
}

// TestDiagnoseHotNFAcrossWorkers: one hot NF producing every victim — the
// shape where all workers contend for the same memo keys at once — must
// diagnose identically at every worker count.
func TestDiagnoseHotNFAcrossWorkers(t *testing.T) {
	st, _ := buildDAGStore(t, true, true)

	// 1000 victims at f, arriving every 2µs across the interrupt episode
	// and its drain.
	victims := make([]Victim, 1000)
	for i := range victims {
		victims[i] = Victim{
			Comp:     "f",
			ArriveAt: simtime.Time(simtime.Millisecond + simtime.Duration(2*i)*simtime.Microsecond),
			Kind:     VictimLatency,
		}
	}
	want := NewEngine(Config{Workers: 1}).DiagnoseVictims(st, victims)
	blamed := 0
	for i := range want {
		if len(want[i].Causes) > 0 {
			blamed++
		}
	}
	if blamed < len(victims)/4 {
		t.Fatalf("only %d of %d hot-NF victims have causes: workload degenerate", blamed, len(victims))
	}
	for _, workers := range []int{2, 4, 8} {
		got := NewEngine(Config{Workers: workers}).DiagnoseVictims(st, victims)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diagnoses differ from workers=1", workers)
		}
	}
}

// TestEngineConcurrentRuns: one engine serves two concurrent runs over the
// same store — sharing its memo and its spare arenas — and both produce
// exactly the output of a fresh sequential engine.
func TestEngineConcurrentRuns(t *testing.T) {
	st, _ := buildDAGStore(t, true, true)
	want := NewEngine(Config{Workers: 1}).Diagnose(st)
	if len(want) == 0 {
		t.Fatal("no victims")
	}
	vs := make([]Victim, len(want))
	for i := range want {
		vs[i] = want[i].Victim
	}

	eng := NewEngine(Config{Workers: 4})
	var got [2][]Diagnosis
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = eng.DiagnoseVictims(st, vs)
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("concurrent run %d differs from the sequential engine", g)
		}
	}
}

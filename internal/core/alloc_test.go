package core

import "testing"

// TestDiagnoseVictimSteadyStateAllocs guards the reused-scratch design:
// once the store index and memo tables are warm, diagnosing a victim
// must allocate only the returned Diagnosis (causes slice + journey
// copies), not per-arrival or per-path scratch. The ceiling is generous;
// it exists to catch a regression back to allocation-per-arrival in the
// §4.2 path-grouping walk.
func TestDiagnoseVictimSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped in -short mode")
	}
	st, _ := buildDAGStore(t, true, false)
	eng := NewEngine(Config{})

	victims := eng.FindVictims(st)
	if len(victims) == 0 {
		t.Fatal("no victims")
	}
	v := victims[0]
	eng.DiagnoseVictim(st, v) // warm index, memo, and the spare arena

	avg := testing.AllocsPerRun(20, func() {
		d := eng.DiagnoseVictim(st, v)
		if len(d.Causes) == 0 {
			t.Fatal("no causes")
		}
	})
	// Steady state re-diagnosis is memo-served: the output Diagnosis and
	// its cause/journey copies dominate. 200 is ~an order of magnitude
	// above the observed count and far below the thousands that
	// per-victim scratch allocation cost.
	if avg > 200 {
		t.Errorf("DiagnoseVictim steady state allocates %.0f allocs/run, budget 200", avg)
	}
}

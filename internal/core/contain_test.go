package core

import (
	"reflect"
	"testing"

	"microscope/internal/obs"
	"microscope/internal/tracestore"
)

// TestSingleVictimEntryPointsContainPanics: DiagnoseVictim, Explain and
// FindVictims honour ContainPanics as a diagnosis run does. Armed, a panic
// leaves the victim without causes, the explanation without a tree and
// the selection empty, and it is counted; a hook that does not panic
// changes nothing. Not armed, the panic reaches the caller.
func TestSingleVictimEntryPointsContainPanics(t *testing.T) {
	st, _ := buildDAGStore(t, true, false)
	plain := NewEngine(Config{})
	victims := plain.FindVictims(st)
	if len(victims) == 0 {
		t.Fatal("no victims")
	}
	v := victims[0]
	entries := []struct {
		name, scope string
		call        func(e *Engine, st *tracestore.Store) any
		contained   any
	}{
		{"DiagnoseVictim", "victim:0",
			func(e *Engine, st *tracestore.Store) any { return e.DiagnoseVictim(st, v) },
			Diagnosis{Victim: v}},
		{"Explain", "victim:0",
			func(e *Engine, st *tracestore.Store) any { return e.Explain(st, v) },
			&Explanation{Victim: v}},
		{"FindVictims", "victims",
			func(e *Engine, st *tracestore.Store) any { return e.FindVictims(st) },
			[]Victim(nil)},
	}
	for _, ent := range entries {
		t.Run(ent.name, func(t *testing.T) {
			want := ent.call(plain, st)
			if reflect.DeepEqual(want, ent.contained) {
				t.Fatalf("the plain call already returns the contained result %v", want)
			}
			armed := false
			hook := func(scope string) {
				if armed && scope == ent.scope {
					panic("chaos: injected " + scope + " panic")
				}
			}
			reg := obs.New()
			eng := NewEngine(Config{ContainPanics: true, ChaosHook: hook, Obs: reg})
			if got := ent.call(eng, st); !reflect.DeepEqual(got, want) || eng.ContainedPanics() != 0 {
				t.Errorf("hook not firing: got %v with %d panics, want the plain result", got, eng.ContainedPanics())
			}
			armed = true
			if got := ent.call(eng, st); !reflect.DeepEqual(got, ent.contained) {
				t.Errorf("contained panic returned %v, want %v", got, ent.contained)
			}
			if n := eng.ContainedPanics(); n != 1 {
				t.Errorf("ContainedPanics = %d, want 1", n)
			}
			if n := reg.Counter("microscope_diag_victim_panics_total").Value(); n != 1 {
				t.Errorf("victim panics counter = %d, want 1", n)
			}

			bare := NewEngine(Config{ChaosHook: hook})
			func() {
				defer func() {
					if recover() == nil {
						t.Error("without ContainPanics the panic did not reach the caller")
					}
				}()
				ent.call(bare, st)
			}()
		})
	}
}

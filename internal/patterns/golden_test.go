package patterns_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"microscope"
	"microscope/internal/core"
	"microscope/internal/obs"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite testdata/eval16.golden from this tree's output")

const (
	goldenPath    = "testdata/eval16.golden"
	goldenSeed    = 8
	goldenDur     = 20 * microscope.Millisecond
	goldenVictims = 120
)

// goldenTrace is the fixed trace behind eval16.golden, generated through
// the public facade the way the benchmark harness generates offline-batch's
// (bench/input.go genLap, seed 8): the 16-NF evaluation topology under
// 1.2 Mpps for 20 ms plus a 20 ms drain, an interrupt of a random NF in the
// first 10 ms slot and a burst of a random flow in the second.
var goldenTrace = sync.OnceValue(func() *microscope.Trace {
	const slot = 10 * microscope.Millisecond
	rng := rand.New(rand.NewSource(goldenSeed + 1000))
	dep := microscope.NewEvalDeployment(microscope.EvalTopologyConfig{Seed: goldenSeed})
	wl := microscope.NewWorkload(microscope.WorkloadConfig{
		Rate:     microscope.MPPS(1.2),
		Duration: goldenDur,
		Seed:     goldenSeed + 1,
	})
	nfs := dep.NFs()
	for s := 0; s < int(goldenDur/slot); s++ {
		off := slot/4 + microscope.Duration(rng.Int63n(int64(slot/4)))
		at := microscope.Time(microscope.Duration(s)*slot + off)
		if s%2 == 0 {
			nf := nfs[rng.Intn(len(nfs))]
			d := 500*microscope.Microsecond + microscope.Duration(rng.Int63n(int64(500*microscope.Microsecond)))
			dep.InjectInterrupt(nf, at, d)
		} else {
			count := 500 + rng.Intn(2000)
			wl.InjectBurst(microscope.Burst{At: at, Flow: wl.PickFlow(rng.Intn(1024)), Count: count, Gap: 400 * microscope.Nanosecond})
		}
	}
	dep.Replay(wl)
	dep.Run(goldenDur + 20*microscope.Millisecond)
	return dep.Trace()
})

// goldenRun diagnoses the golden trace and aggregates its patterns.
func goldenRun(workers int, reg *obs.Registry) *pipeline.Result {
	return pipeline.Run(goldenTrace(), pipeline.Config{
		Diagnosis: core.Config{MaxVictims: goldenVictims, Workers: workers},
		Patterns:  patterns.Config{Workers: workers},
		Obs:       reg,
	})
}

// TestGoldenEval16 pins the full pattern list of a fixed trace across
// commits: the benchmark's own output check compares msdiag with
// pipeline.Run of the same tree, so it cannot see both drift together.
// Regenerate with `go test ./internal/patterns -run TestGoldenEval16 -update`
// only when a change is meant to alter pattern output.
func TestGoldenEval16(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario test; skipped in -short mode")
	}
	for _, workers := range []int{1, 4} {
		res := goldenRun(workers, nil)
		got := fmt.Sprintf("relations %d\npatterns %d\n%s",
			res.Relations, len(res.Patterns), patterns.Render(res.Patterns))
		if *update {
			if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			*update = false // later worker counts must match what was written
			continue
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("workers=%d: pattern output drifted from %s\n--- got\n%s--- want\n%s", workers, goldenPath, got, want)
		}
	}
}

// TestGoldenCellsGate is the host-independent regression gate on the
// AutoFocus search: the number of lattice cells it materialises on the
// golden trace depends on the input alone, so it must repeat exactly across
// worker counts, and it must stay a small multiple of the leaves. Expanding
// every leaf's whole lattice makes it 1350 per leaf; the level-ordered
// search without per-dimension floors measured 382; with them, 2.9.
func TestGoldenCellsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario test; skipped in -short mode")
	}
	const maxCellsPerLeaf = 10
	var first [2]int64
	for i, workers := range []int{1, 4} {
		reg := obs.New()
		goldenRun(workers, reg)
		got := [2]int64{
			reg.Counter("microscope_patterns_leaves_total").Value(),
			reg.Counter("microscope_patterns_cells_total").Value(),
		}
		if i == 0 {
			first = got
			t.Logf("leaves %d, cells %d (%.1f per leaf)", got[0], got[1], float64(got[1])/float64(got[0]))
		}
		if got != first {
			t.Errorf("workers=%d: leaves, cells = %v, workers=1 had %v", workers, got, first)
		}
		if got[0] == 0 || got[1] > maxCellsPerLeaf*got[0] {
			t.Errorf("workers=%d: %d cells for %d leaves, want at most %d per leaf", workers, got[1], got[0], maxCellsPerLeaf)
		}
	}
}

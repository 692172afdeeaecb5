package tracestore

import (
	"testing"

	"microscope/internal/simtime"
)

// TestReconstructAllocsPerRecord guards the count-then-fill layout: a
// cold Build carves every per-view table out of a few
// exactly-sized slabs, so its allocation count depends on the number of
// components (views, their interner entries, the meta tables), not on the
// number of records. The ceiling is what that comes to for this 5-
// component chain with room to spare; one allocation per view per table,
// let alone per record, blows through it.
func TestReconstructAllocsPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped in -short mode")
	}
	var allocs [2]float64
	for i, dur := range []simtime.Duration{2 * simtime.Millisecond, 8 * simtime.Millisecond} {
		sched := cbr(simtime.MPPS(0.3), dur, 7)
		_, st := runChain(t, sched, simtime.MPPS(1), simtime.MPPS(0.9), simtime.MPPS(0.8))
		nRec := len(st.Trace.Records)
		if nRec == 0 {
			t.Fatal("empty trace")
		}
		allocs[i] = testing.AllocsPerRun(5, func() {
			Build(st.Trace)
		})
		if allocs[i] > 80 {
			t.Errorf("reconstruction of %d records allocates %.0f objects (%.4f per record), budget 80 in all",
				nRec, allocs[i], allocs[i]/float64(nRec))
		}
	}
	if allocs[1] > allocs[0]+4 {
		t.Errorf("allocations grow with the trace: %.0f for 2 ms, %.0f for 8 ms", allocs[0], allocs[1])
	}
}

package tracestore

import (
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// standingQueueStore builds a trace where the NF runs hot enough that its
// queue never fully drains mid-run, then two bursts arrive — the §7
// scenario where zero-threshold periods degenerate.
func standingQueueStore(t *testing.T) *Store {
	t.Helper()
	col := collector.New(collector.Config{})
	// Offered 0.48 vs effective peak ~0.48 (0.5 with 5% jitter): the
	// queue hovers above zero for most of the run.
	sim := nfsim.BuildChain(col, 7, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.5)})
	iv := simtime.MPPS(0.48).Interval()
	var ems []traffic.Emission
	ft := flow(1)
	for tt := simtime.Time(0); tt < simtime.Time(30*simtime.Millisecond); tt = tt.Add(iv) {
		ems = append(ems, traffic.Emission{At: tt, Flow: ft, Size: 64, Burst: -1})
	}
	sched := &traffic.Schedule{Emissions: ems}
	sched.InjectBurst(traffic.BurstSpec{ID: 1, At: simtime.Time(10 * simtime.Millisecond), Flow: flow(2), Count: 300})
	sched.InjectBurst(traffic.BurstSpec{ID: 2, At: simtime.Time(20 * simtime.Millisecond), Flow: flow(3), Count: 300})
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(200 * simtime.Millisecond))
	st := Build(col.Trace(collector.MetaOf(sim)))
	return st
}

func TestThresholdZeroMatchesBase(t *testing.T) {
	st := standingQueueStore(t)
	for _, at := range []simtime.Time{
		simtime.Time(5 * simtime.Millisecond),
		simtime.Time(10500 * simtime.Microsecond),
		simtime.Time(25 * simtime.Millisecond),
	} {
		base := st.QueuingPeriodAt("fw1", at)
		thr := st.QueuingPeriodThreshold("fw1", at, 0)
		if (base == nil) != (thr == nil) {
			t.Fatalf("at %v: nil mismatch", at)
		}
		if base == nil {
			continue
		}
		if base.Start != thr.Start || base.NIn != thr.NIn || base.NProc != thr.NProc {
			t.Fatalf("at %v: base %+v vs thr %+v", at, base, thr)
		}
	}
}

func TestThresholdShortensDegeneratePeriods(t *testing.T) {
	st := standingQueueStore(t)
	// A victim during the second burst: with zero threshold the period
	// reaches back to wherever the queue last emptied (possibly near the
	// run start); with a 16-packet threshold it starts near the second
	// burst.
	victimAt := simtime.Time(simtime.Duration(20300) * simtime.Microsecond)
	base := st.QueuingPeriodAt("fw1", victimAt)
	thr := st.QueuingPeriodThreshold("fw1", victimAt, 16)
	if base == nil || thr == nil {
		t.Fatal("periods missing")
	}
	if thr.Start < base.Start {
		t.Errorf("threshold start %v earlier than base %v", thr.Start, base.Start)
	}
	if thr.T() > base.T() {
		t.Errorf("threshold period %v longer than base %v", thr.T(), base.T())
	}
	// The thresholded period must still cover the second burst onset.
	if thr.Start > simtime.Time(simtime.Duration(20300)*simtime.Microsecond) {
		t.Errorf("threshold period start %v misses the burst", thr.Start)
	}
	if thr.NIn <= 0 || thr.NIn > base.NIn {
		t.Errorf("NIn: thr %d base %d", thr.NIn, base.NIn)
	}
}

func TestThresholdMonotoneInK(t *testing.T) {
	st := standingQueueStore(t)
	victimAt := simtime.Time(simtime.Duration(20500) * simtime.Microsecond)
	var prev simtime.Time = -1
	for _, k := range []int{1, 4, 16, 64, 256} {
		qp := st.QueuingPeriodThreshold("fw1", victimAt, k)
		if qp == nil {
			// Higher thresholds may lose the period entirely once
			// the queue never exceeds k before t; stop there.
			break
		}
		if qp.Start < prev {
			t.Fatalf("period start not monotone in k: %v after %v", qp.Start, prev)
		}
		prev = qp.Start
		if qp.NIn-qp.NProc < 0 {
			t.Fatalf("negative queue at k=%d", k)
		}
	}
}

func TestThresholdUnknownComp(t *testing.T) {
	st := standingQueueStore(t)
	if st.QueuingPeriodThreshold("nope", 100, 8) != nil {
		t.Error("unknown comp should be nil")
	}
}

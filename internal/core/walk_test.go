package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/faults"
	"microscope/internal/nfsim"
	"microscope/internal/obs"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// evalTrace simulates the 16-NF evaluation topology at 1.2 Mpps for 4 ms
// (seed 4). A faulted trace adds an 800 µs nat1 interrupt at 1 ms and a
// 1,500-packet burst of one flow at 2.5 ms.
func evalTrace(faulted bool) *collector.Trace {
	const seed, dur = 4, 4 * simtime.Millisecond
	col := collector.New(collector.Config{})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: seed})
	mix := traffic.NewMix(traffic.MixConfig{Seed: seed + 1})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{Rate: simtime.MPPS(1.2), Duration: dur, Seed: seed + 2})
	if faulted {
		topo.Sim.InjectInterrupt("nat1", simtime.Time(simtime.Millisecond), 800*simtime.Microsecond, "int")
		sched.InjectBurst(traffic.BurstSpec{At: simtime.Time(2500 * simtime.Microsecond), Flow: flow(7), Count: 1500})
	}
	topo.Sim.LoadSchedule(sched)
	topo.Sim.Run(simtime.Time(dur + 2*simtime.Millisecond))
	return col.Trace(collector.MetaOf(topo.Sim))
}

// walkTraces are the evaluation trace clean and damaged the ways
// tracestore's digest suite damages it (reordered, dropped and duplicated
// records, IPIDs cut to 4 bits), and the faulted trace, whose busy periods
// run to hundreds of arrivals.
func walkTraces() []struct {
	name string
	tr   *collector.Trace
} {
	eval := evalTrace(false)
	out := []struct {
		name string
		tr   *collector.Trace
	}{{"clean", eval}, {"faulted", evalTrace(true)}}
	for _, f := range []struct {
		name string
		cfg  faults.Config
	}{
		{"reorder", faults.Config{Seed: 11, ReorderRate: 0.05}},
		{"drop", faults.Config{Seed: 12, DropRate: 0.02, BurstDropRate: 0.002}},
		{"dup", faults.Config{Seed: 13, DupRate: 0.03}},
	} {
		damaged, _ := faults.Inject(eval, f.cfg)
		out = append(out, struct {
			name string
			tr   *collector.Trace
		}{f.name, damaged})
	}
	narrow := *eval
	narrow.Records = slices.Clone(eval.Records)
	for i := range narrow.Records {
		r := &narrow.Records[i]
		r.IPIDs = slices.Clone(r.IPIDs)
		for k := range r.IPIDs {
			r.IPIDs[k] &= 0xf
		}
	}
	return append(out, struct {
		name string
		tr   *collector.Trace
	}{"narrow", &narrow})
}

// refPath is the path grouping as it was computed before busy periods were
// walked once: one map of running bounds per queuing period.
type refPath struct {
	key                    string
	comps                  []tracestore.CompID
	journeys               []int
	n                      int
	spans                  []simtime.Duration
	lastSpan               simtime.Duration
	firstArrive            []simtime.Time
	lastArrive             []simtime.Time
	departMin, departMax   []simtime.Time
	arriveFMin, arriveFMax simtime.Time
}

// refCollectPaths walks the period's arrivals from scratch.
func refCollectPaths(d *diagnoser, f tracestore.CompID, qp *tracestore.QueuingPeriod) []*refPath {
	arrivals := d.st.PeriodArrivals(qp)
	if arrivals == nil {
		return nil
	}
	byKey := make(map[string]*refPath)
	for ai := range arrivals {
		arr := &arrivals[ai]
		j := d.st.JourneyAt(arr.Journey)
		if j == nil {
			continue
		}
		comps := []tracestore.CompID{d.src}
		departs := []simtime.Time{j.EmittedAt}
		arrives := []simtime.Time{j.EmittedAt}
		for h := range j.Hops {
			if j.Hops[h].Comp == f {
				break
			}
			comps = append(comps, j.Hops[h].Comp)
			departs = append(departs, j.Hops[h].DepartAt)
			arrives = append(arrives, j.Hops[h].ArriveAt)
		}
		var key []byte
		for _, c := range comps {
			key = append(key, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
		}
		p := byKey[string(key)]
		if p == nil {
			p = &refPath{
				key: string(key), comps: comps,
				spans:       make([]simtime.Duration, len(comps)),
				firstArrive: make([]simtime.Time, len(comps)),
				lastArrive:  make([]simtime.Time, len(comps)),
				departMin:   make([]simtime.Time, len(comps)),
				departMax:   make([]simtime.Time, len(comps)),
				arriveFMin:  simtime.Never, arriveFMax: -1,
			}
			for i := range comps {
				p.departMin[i], p.departMax[i] = simtime.Never, -1
				p.firstArrive[i], p.lastArrive[i] = simtime.Never, -1
			}
			byKey[p.key] = p
		}
		p.n++
		p.journeys = append(p.journeys, arr.Journey)
		for i := range p.comps {
			p.departMin[i] = min(p.departMin[i], departs[i])
			p.departMax[i] = max(p.departMax[i], departs[i])
			p.firstArrive[i] = min(p.firstArrive[i], arrives[i])
			p.lastArrive[i] = max(p.lastArrive[i], arrives[i])
		}
		p.arriveFMin = min(p.arriveFMin, arr.At)
		p.arriveFMax = max(p.arriveFMax, arr.At)
	}
	out := make([]*refPath, 0, len(byKey))
	for _, p := range byKey {
		for i := range p.comps {
			if p.departMax[i] >= 0 {
				p.spans[i] = p.departMax[i].Sub(p.departMin[i])
			}
		}
		if p.arriveFMax >= 0 {
			p.lastSpan = p.arriveFMax.Sub(p.arriveFMin)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// refPeriodJourneys lists the period's linked journeys from scratch.
func refPeriodJourneys(d *diagnoser, qp *tracestore.QueuingPeriod) []int {
	var out []int
	for _, arr := range d.st.PeriodArrivals(qp) {
		if arr.Journey >= 0 {
			out = append(out, arr.Journey)
		}
	}
	return out
}

// diffPaths describes the first difference between the walk's answer and
// the reference's, or returns "".
func diffPaths(got []pathStats, want []*refPath) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := &got[i]
		switch {
		case !slices.Equal(g.comps, w.comps):
			return fmt.Sprintf("path %d: comps %v, want %v", i, g.comps, w.comps)
		case g.n != w.n:
			return fmt.Sprintf("path %d: n %d, want %d", i, g.n, w.n)
		case !slices.Equal(g.journeys, w.journeys):
			return fmt.Sprintf("path %d: journeys %v, want %v", i, g.journeys, w.journeys)
		case !slices.Equal(g.spans, w.spans):
			return fmt.Sprintf("path %d: spans %v, want %v", i, g.spans, w.spans)
		case !slices.Equal(g.firstArrive, w.firstArrive):
			return fmt.Sprintf("path %d: firstArrive %v, want %v", i, g.firstArrive, w.firstArrive)
		case !slices.Equal(g.lastArrive, w.lastArrive):
			return fmt.Sprintf("path %d: lastArrive %v, want %v", i, g.lastArrive, w.lastArrive)
		case g.lastSpan != w.lastSpan:
			return fmt.Sprintf("path %d: lastSpan %v, want %v", i, g.lastSpan, w.lastSpan)
		}
	}
	return ""
}

// TestBusyWalkMatchesRescan holds the busy-period walk to a from-scratch
// walk of each queuing period: every prefix of every busy period of every
// component, on the clean and damaged eval traces, at the base queue
// threshold and at the §7 one, asked for shortest first and longest first.
// collectPaths must agree on every path field and periodJourneys on the
// journey list.
func TestBusyWalkMatchesRescan(t *testing.T) {
	if testing.Short() {
		t.Skip("walks every prefix of five traces; skipped in -short mode")
	}
	unlinked := 0
	for _, c := range walkTraces() {
		st := tracestore.Build(c.tr)
		for _, threshold := range []int{0, 4} {
			for _, order := range []string{"shortest first", "longest first"} {
				d := NewEngine(Config{QueueThreshold: threshold}).newDiagnoser(st)
				a := new(workerArena)
				for comp := range st.NumComps() {
					f := tracestore.CompID(comp)
					v := st.ViewID(f)
					if v == nil {
						continue
					}
					idx := make([]int, len(v.Arrivals))
					for i := range idx {
						idx[i] = i
					}
					if order == "longest first" {
						slices.Reverse(idx)
					}
					for _, i := range idx {
						if threshold == 0 && order == "shortest first" && st.JourneyAt(v.Arrivals[i].Journey) == nil {
							unlinked++
						}
						qp := st.QueuingPeriodThresholdID(f, v.Arrivals[i].At, threshold)
						if qp == nil {
							continue
						}
						if msg := diffPaths(d.collectPaths(f, qp, &a.cs), refCollectPaths(d, f, qp)); msg != "" {
							t.Fatalf("%s, threshold %d, %s: %s period [%d, %d]: %s",
								c.name, threshold, order, st.CompName(f), qp.ArrivalFirst, qp.ArrivalLast, msg)
						}
						if got, want := d.periodJourneys(f, qp), refPeriodJourneys(d, qp); !slices.Equal(got, want) {
							t.Fatalf("%s, threshold %d, %s: %s period [%d, %d]: journeys %v, want %v",
								c.name, threshold, order, st.CompName(f), qp.ArrivalFirst, qp.ArrivalLast, got, want)
						}
					}
				}
			}
		}
	}
	// The drop and dup traces leave arrivals no journey claims: the walk's
	// nil-journey filter is exercised, not just present.
	if unlinked == 0 {
		t.Error("no trace has an unlinked arrival")
	}
}

// TestArrivalsWalkedPinned pins the arrivals a cold diagnosis of the
// faulted eval trace walks. Each arrival belongs to one busy period at the base
// threshold and each busy period is walked once, so the count can never
// exceed the store's arrivals; walking each queuing period from its start
// instead would multiply it.
func TestArrivalsWalkedPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace diagnosis; skipped in -short mode")
	}
	st := tracestore.Build(evalTrace(true))
	arrivals := 0
	for comp := range st.NumComps() {
		if v := st.ViewID(tracestore.CompID(comp)); v != nil {
			arrivals += len(v.Arrivals)
		}
	}
	const want = 2993
	for _, workers := range []int{1, 4} {
		reg := obs.New()
		diags := NewEngine(Config{Workers: workers, Obs: reg}).Diagnose(st)
		got := reg.Counter("microscope_diag_arrivals_walked_total").Value()
		t.Logf("workers=%d: %d victims, %d arrivals walked of %d", workers, len(diags), got, arrivals)
		if got != want || got > int64(arrivals) {
			t.Errorf("workers=%d: %d arrivals walked, want %d (the store holds %d)", workers, got, want, arrivals)
		}
	}
}

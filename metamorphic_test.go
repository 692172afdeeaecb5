package microscope

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/simtime"
)

// Metamorphic relations of the diagnoser: changes to a trace that the
// paper's algorithm cannot see must leave every victim's ranked causes as
// they were, once names and times are mapped back. They need no second
// implementation to check against, and they hold the interning order,
// record order and absolute times the store is built with to having no
// say in the answer.

// metamorphicTrace is the 16-NF evaluation topology at 1.2 Mpps for 8 ms
// with a 600 µs interrupt of nat2 at 2 ms and, with burst, a 600-packet
// burst at 5 ms.
func metamorphicTrace(seed int64, burst bool) *Trace {
	dep := NewEvalDeployment(EvalTopologyConfig{Seed: seed})
	wl := NewWorkload(WorkloadConfig{Rate: MPPS(1.2), Duration: 8 * simtime.Millisecond, Flows: 512, Seed: seed + 10})
	if burst {
		wl.InjectBurst(Burst{At: 5 * Time(simtime.Millisecond), Flow: wl.PickFlow(3), Count: 600})
	}
	dep.InjectInterrupt("nat2", 2*Time(simtime.Millisecond), 600*simtime.Microsecond)
	dep.Replay(wl)
	dep.Run(10 * simtime.Millisecond)
	return dep.Trace()
}

// relation is one transformation of a trace, with the map from the names
// and times in its answer back to the original's.
type relation struct {
	name      string
	transform func(*Trace) *Trace
	nameBack  func(string) string
	timeBack  func(Time) Time
}

func sameName(s string) string { return s }
func sameTime(t Time) Time     { return t }

// copyTrace deep-copies the parts of a trace the relations rewrite.
func copyTrace(tr *Trace) *Trace {
	cp := *tr
	cp.Meta = tr.Meta.Clone()
	cp.Records = slices.Clone(tr.Records)
	return &cp
}

func relations(tr *Trace) []relation {
	const shift = simtime.Second
	// Rename every NF so that lexical order reverses: the NFs sorted by
	// name get names that sort the other way round.
	var nfs []string
	for _, c := range tr.Meta.Components {
		if c.Name != collector.SourceName {
			nfs = append(nfs, c.Name)
		}
	}
	sort.Strings(nfs)
	to, from := map[string]string{collector.SourceName: collector.SourceName}, map[string]string{}
	for i, n := range nfs {
		to[n] = fmt.Sprintf("nf%02d", len(nfs)-1-i)
		from[to[n]] = n
	}
	from[collector.SourceName] = collector.SourceName
	return []relation{
		{
			name: "time shifted by 1 s",
			transform: func(tr *Trace) *Trace {
				cp := copyTrace(tr)
				for i := range cp.Records {
					cp.Records[i].At = cp.Records[i].At.Add(shift)
				}
				return cp
			},
			nameBack: sameName,
			timeBack: func(t Time) Time { return t.Add(-shift) },
		},
		{
			name: "components and edges reversed",
			transform: func(tr *Trace) *Trace {
				cp := copyTrace(tr)
				slices.Reverse(cp.Meta.Components)
				slices.Reverse(cp.Meta.Edges)
				return cp
			},
			nameBack: sameName,
			timeBack: sameTime,
		},
		{
			name: "NFs renamed in reverse lexical order",
			transform: func(tr *Trace) *Trace {
				cp := copyTrace(tr)
				for i := range cp.Meta.Components {
					cp.Meta.Components[i].Name = to[cp.Meta.Components[i].Name]
				}
				for i := range cp.Meta.Edges {
					e := &cp.Meta.Edges[i]
					e.From, e.To = to[e.From], to[e.To]
				}
				for i := range cp.Records {
					r := &cp.Records[i]
					r.Comp = to[r.Comp]
					if q, ok := strings.CutSuffix(r.Queue, ".in"); ok {
						r.Queue = to[q] + ".in"
					}
				}
				return cp
			},
			nameBack: func(s string) string { return from[s] },
			timeBack: sameTime,
		},
		{
			name: "records reversed",
			transform: func(tr *Trace) *Trace {
				cp := copyTrace(tr)
				slices.Reverse(cp.Records)
				return cp
			},
			nameBack: sameName,
			timeBack: sameTime,
		},
	}
}

// answers maps each victim, by what identifies it whatever the journey
// numbering (its packet's IPID and emission, component, arrival, queue
// delay, kind and flow), to its ranked causes as "component/kind/score",
// with names and times mapped back.
func answers(rep *Report, nameBack func(string) string, timeBack func(Time) Time) map[string][]string {
	out := make(map[string][]string, len(rep.Diagnoses))
	for _, d := range rep.Diagnoses {
		v := d.Victim
		j := &rep.Store.Journeys[v.Journey]
		key := fmt.Sprintf("%d@%d %s@%d+%d/%v/%v", j.IPID, timeBack(j.EmittedAt),
			nameBack(v.Comp), timeBack(v.ArriveAt), v.QueueDelay, v.Kind, v.Tuple)
		causes := make([]string, len(d.Causes))
		for i, c := range d.Causes {
			causes[i] = fmt.Sprintf("%s/%v/%.9g", nameBack(c.Comp), c.Kind, c.Score)
		}
		out[key] = append(out[key], strings.Join(causes, " "))
	}
	for _, v := range out {
		sort.Strings(v) // victims that share a key, in an order of their own
	}
	return out
}

// interruptRankOne counts the latency victims of rep and those whose
// rank-1 cause is comp.
func interruptRankOne(rep *Report, comp string) (victims, first int) {
	for _, d := range rep.Diagnoses {
		if d.Victim.Kind != VictimLatency {
			continue
		}
		victims++
		if len(d.Causes) > 0 && d.Causes[0].Comp == comp {
			first++
		}
	}
	return victims, first
}

// TestMetamorphicRelations: on the evaluation topology with an interrupt,
// with and without a burst, seeds 1–3, every victim's ranked causes are the
// same under a time shift, reversed component and edge order, names whose
// lexical order is reversed, and reversed record order. With the burst,
// the burst sets the trace's latency threshold and its victims blame the
// source; without it, the interrupted nat2 is the rank-1 cause of most
// victims — checked before the relations run, so that they keep testing
// the §4.2 recursion into a slow NF.
func TestMetamorphicRelations(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnoses thirty traces; skipped in -short mode")
	}
	for _, burst := range []bool{true, false} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("seed %d, burst %v", seed, burst)
			tr := metamorphicTrace(seed, burst)
			rep := Diagnose(tr)
			base := answers(rep, sameName, sameTime)
			if len(base) < 20 {
				t.Fatalf("%s: %d victims; the relations would check little", name, len(base))
			}
			if !burst {
				victims, first := interruptRankOne(rep, "nat2")
				t.Logf("%s: nat2 is the rank-1 cause of %d of %d latency victims", name, first, victims)
				if 2*first <= victims {
					t.Fatalf("%s: nat2 is the rank-1 cause of %d of %d latency victims, not a majority: the relations would not reach the interrupt", name, first, victims)
				}
			}
			for _, r := range relations(tr) {
				got := answers(Diagnose(r.transform(tr)), r.nameBack, r.timeBack)
				if len(got) != len(base) {
					t.Errorf("%s, %s: %d victims, want %d", name, r.name, len(got), len(base))
					continue
				}
				for key, want := range base {
					if g := got[key]; !slices.Equal(g, want) {
						t.Errorf("%s, %s: victim %s:\n got %q\nwant %q", name, r.name, key, g, want)
						break
					}
				}
			}
		}
	}
}

// Package patterns implements Microscope's causal-pattern aggregation
// (paper §4.4): packet-level causal relations
//
//	<culprit packets, culprit NF> → <victim packet, victim NF>: score
//
// are aggregated into a ranked list of
//
//	<culprit flow aggregate, culprit NF set> → <victim flow aggregate,
//	victim NF set>: score
//
// using the two-phase decoupling the paper describes: first AutoFocus over
// the victim dimensions per culprit group, then AutoFocus over the culprit
// dimensions across the intermediate aggregates. The decoupling is what
// keeps the many-dimension search tractable.
package patterns

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"microscope/internal/autofocus"
	"microscope/internal/core"
	"microscope/internal/obs"
	"microscope/internal/packet"
	"microscope/internal/par"
	"microscope/internal/tracestore"
)

// Relation is one packet-level causal relation, the §4.4 input.
type Relation struct {
	CulpritFlow packet.FiveTuple
	// CulpritHasFlow is false when the culprit packet never reached
	// egress, so its five-tuple is unknown (§5 records tuples only at
	// the end of the graph).
	CulpritHasFlow bool
	CulpritNF      string
	CulpritKind    string

	VictimFlow    packet.FiveTuple
	VictimHasFlow bool
	VictimNF      string
	VictimKind    string

	Score float64
}

// Pattern is one aggregated causal pattern.
type Pattern struct {
	CulpritFlow autofocus.FlowAgg
	CulpritNF   autofocus.NFAgg
	VictimFlow  autofocus.FlowAgg
	VictimNF    autofocus.NFAgg
	Score       float64
}

// String renders the Figure 14 row format:
// "<culprit 5-tuple> <culprit location> => <victim 5-tuple> <victim location>".
func (p Pattern) String() string {
	return fmt.Sprintf("%s %s => %s %s : %.1f",
		p.CulpritFlow, p.CulpritNF, p.VictimFlow, p.VictimNF, p.Score)
}

// Config tunes aggregation.
type Config struct {
	// Threshold is the significance fraction th (default 0.01, the
	// paper's evaluation setting). Higher values yield fewer, coarser
	// patterns.
	Threshold float64
	// MaxCulpritsPerCause bounds how many culprit packets one cause
	// contributes relation shares to (default 256), keeping the input
	// size linear in diagnoses.
	MaxCulpritsPerCause int
	// Workers bounds the per-group AutoFocus fan-out in both phases
	// (0 = GOMAXPROCS, 1 = sequential). Output is identical for any
	// value: groups are independent and results merge in group order.
	Workers int
	// Obs receives aggregation metrics (relations in, patterns out, phase
	// group counts and latencies). nil falls back to the process default.
	Obs *obs.Registry
}

// DefaultThreshold is the significance fraction th used when
// Config.Threshold is zero: the paper's evaluation setting.
const DefaultThreshold = 0.01

// phase1Threshold is the per-culprit-group victim aggregation threshold.
const phase1Threshold = 0.05

func (c *Config) setDefaults() {
	if c.Threshold == 0 {
		c.Threshold = DefaultThreshold
	}
	if c.MaxCulpritsPerCause == 0 {
		c.MaxCulpritsPerCause = 256
	}
}

// RelationsFromDiagnoses explodes per-victim diagnoses into packet-level
// causal relations: each cause's score is split evenly across its culprit
// packets (the PreSet packets at the culprit NF).
func RelationsFromDiagnoses(st *tracestore.Store, diags []core.Diagnosis, cfg Config) []Relation {
	cfg.setDefaults()
	n := 0
	for di := range diags {
		for ci := range diags[di].Causes {
			n += max(1, min(len(diags[di].Causes[ci].CulpritJourneys), cfg.MaxCulpritsPerCause))
		}
	}
	out := make([]Relation, 0, n)
	for di := range diags {
		d := &diags[di]
		// The victim side is fixed per diagnosis and the culprit NF per
		// cause: look the kinds up there, not per relation.
		victim := Relation{
			VictimFlow:    d.Victim.Tuple,
			VictimHasFlow: d.Victim.HasTuple,
			VictimNF:      d.Victim.Comp,
			VictimKind:    st.KindOf(d.Victim.Comp),
		}
		for ci := range d.Causes {
			c := &d.Causes[ci]
			rel := victim
			rel.CulpritNF, rel.CulpritKind = c.Comp, st.KindOf(c.Comp)
			culprits := c.CulpritJourneys
			if len(culprits) > cfg.MaxCulpritsPerCause {
				// Deterministic random subsample. A stride sample
				// would alias against periodic arrival patterns
				// (e.g. every third packet belonging to one flow)
				// and silently drop whole flows.
				rng := rand.New(rand.NewSource(int64(len(culprits))*2654435761 + 12345))
				perm := rng.Perm(len(culprits))[:cfg.MaxCulpritsPerCause]
				sort.Ints(perm)
				sampled := make([]int, len(perm))
				for i, p := range perm {
					sampled[i] = culprits[p]
				}
				culprits = sampled
			}
			if len(culprits) == 0 {
				// Keep the relation with an unknown culprit flow.
				rel.Score = c.Score
				out = append(out, rel)
				continue
			}
			rel.Score = c.Score / float64(len(culprits))
			for _, jIdx := range culprits {
				if jIdx < 0 || jIdx >= len(st.Journeys) {
					continue
				}
				j := &st.Journeys[jIdx]
				rel.CulpritFlow, rel.CulpritHasFlow = j.Tuple, j.HasTuple
				out = append(out, rel)
			}
		}
	}
	return out
}

// victimAggKey identifies an intermediate victim aggregate.
type victimAggKey struct {
	flow autofocus.FlowAgg
	nf   autofocus.NFAgg
}

// culpritKey identifies an exact culprit <packet flow, NF> group.
type culpritKey struct {
	flow packet.FiveTuple
	has  bool
	nf   string
}

// Aggregate runs the two-phase aggregation and returns the ranked patterns.
func Aggregate(rels []Relation, cfg Config) []Pattern {
	//mslint:allow ctxflow non-ctx convenience wrapper; cancellable path is AggregateContext
	out, _ := AggregateContext(context.Background(), rels, cfg)
	return out
}

// AggregateContext is Aggregate with cooperative cancellation: each phase's
// AutoFocus fan-out checks ctx between groups, and a cancelled context
// returns nil patterns with ctx's error. With a background context the
// output is identical to Aggregate.
func AggregateContext(ctx context.Context, rels []Relation, cfg Config) ([]Pattern, error) {
	cfg.setDefaults()
	if len(rels) == 0 {
		return nil, ctx.Err()
	}
	reg := obs.Or(cfg.Obs)
	phaseNS := func(phase string, began time.Time) {
		if reg == nil {
			return
		}
		//mslint:allow nondet phase latency sample for obs histograms, never in the pattern output
		reg.Histogram("microscope_patterns_phase_ns{phase=\"" + phase + "\"}").Observe(time.Since(began))
	}
	var phaseStart time.Time
	if reg != nil {
		reg.Counter("microscope_patterns_relations_total").Add(int64(len(rels)))
		phaseStart = time.Now() //mslint:allow nondet phase latency sample for obs histograms, never in the pattern output
	}
	var grand float64
	for i := range rels {
		grand += rels[i].Score
	}

	// Phase 1: group by exact culprit <packet flow, NF>; aggregate the
	// victim dimensions within each group.
	type culpritGroup struct {
		kind  string
		items []autofocus.Item
	}
	groups := make(map[culpritKey]*culpritGroup)
	var order []culpritKey
	for i := range rels {
		r := &rels[i]
		k := culpritKey{flow: r.CulpritFlow, has: r.CulpritHasFlow, nf: r.CulpritNF}
		g := groups[k]
		if g == nil {
			g = &culpritGroup{kind: r.CulpritKind}
			groups[k] = g
			order = append(order, k)
		}
		vf := r.VictimFlow
		if !r.VictimHasFlow {
			vf = packet.FiveTuple{} // aggregates to * buckets naturally
		}
		g.items = append(g.items, autofocus.Item{
			Flow:   vf,
			NF:     r.VictimNF,
			Kind:   r.VictimKind,
			Weight: r.Score,
		})
	}
	sort.Slice(order, func(i, j int) bool { return culpritKeyLess(order[i], order[j]) })

	// Phase 1 fan-out: each culprit group's victim-dimension AutoFocus is
	// independent; results land in group-order slots so the phase-2
	// assembly below sees exactly the sequential order.
	phase1 := make([][]autofocus.Pattern, len(order))
	var leaves, cells atomic.Int64 // AutoFocus work of both phases, for obs
	focus := func(items []autofocus.Item, threshold float64) []autofocus.Pattern {
		pats, st := autofocus.AggregateStats(items, autofocus.Config{Threshold: threshold})
		leaves.Add(int64(st.Leaves))
		cells.Add(int64(st.Cells))
		return pats
	}
	err := par.DoCtx(ctx, len(order), cfg.Workers, func(gi int) {
		phase1[gi] = focus(groups[order[gi]].items, phase1Threshold)
	})
	if err != nil {
		return nil, err
	}
	if reg != nil {
		reg.Counter("microscope_patterns_groups_total{phase=\"victims\"}").Add(int64(len(order)))
		phaseNS("victims", phaseStart)
		phaseStart = time.Now() //mslint:allow nondet phase latency sample for obs histograms, never in the pattern output
	}

	// Phase 2 input: per victim aggregate, the culprit-side items.
	phase2 := make(map[victimAggKey][]autofocus.Item)
	var vaOrder []victimAggKey
	for gi, ck := range order {
		g := groups[ck]
		for _, va := range phase1[gi] {
			vk := victimAggKey{flow: va.Flow, nf: va.NF}
			if _, seen := phase2[vk]; !seen {
				vaOrder = append(vaOrder, vk)
			}
			cf := ck.flow
			if !ck.has {
				cf = packet.FiveTuple{}
			}
			phase2[vk] = append(phase2[vk], autofocus.Item{
				Flow:   cf,
				NF:     ck.nf,
				Kind:   g.kind,
				Weight: va.Weight,
			})
		}
	}

	// Phase 2 fan-out: aggregate culprit dimensions per victim aggregate;
	// apply the global significance threshold. Same slot merge as phase 1.
	phase2Out := make([][]autofocus.Pattern, len(vaOrder))
	err = par.DoCtx(ctx, len(vaOrder), cfg.Workers, func(vi int) {
		items := phase2[vaOrder[vi]]
		var groupW float64
		for i := range items {
			groupW += items[i].Weight
		}
		if groupW <= 0 {
			return
		}
		// Local threshold chosen so the reported weight is significant
		// globally: w >= th * grand.
		local := cfg.Threshold * grand / groupW
		if local > 1 {
			return // group too light to ever matter
		}
		phase2Out[vi] = focus(items, local)
	})
	if err != nil {
		return nil, err
	}
	var out []Pattern
	for vi, vk := range vaOrder {
		for _, ca := range phase2Out[vi] {
			out = append(out, Pattern{
				CulpritFlow: ca.Flow,
				CulpritNF:   ca.NF,
				VictimFlow:  vk.flow,
				VictimNF:    vk.nf,
				Score:       ca.Weight,
			})
		}
	}
	// Total order: score desc, then the rendered pattern text — unique per
	// pattern and independent of assembly order. Only tied patterns are
	// rendered, each once.
	texts := make(map[Pattern]string)
	text := func(p Pattern) string {
		if _, ok := texts[p]; !ok {
			texts[p] = p.String()
		}
		return texts[p]
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return text(out[i]) < text(out[j])
	})
	if reg != nil {
		reg.Counter("microscope_patterns_groups_total{phase=\"culprits\"}").Add(int64(len(vaOrder)))
		reg.Counter("microscope_patterns_emitted_total").Add(int64(len(out)))
		reg.Counter("microscope_patterns_leaves_total").Add(leaves.Load())
		reg.Counter("microscope_patterns_cells_total").Add(cells.Load())
		phaseNS("culprits", phaseStart)
	}
	return out, nil
}

func culpritKeyLess(a, b culpritKey) bool {
	if a.nf != b.nf {
		return a.nf < b.nf
	}
	if a.flow.SrcIP != b.flow.SrcIP {
		return a.flow.SrcIP < b.flow.SrcIP
	}
	if a.flow.DstIP != b.flow.DstIP {
		return a.flow.DstIP < b.flow.DstIP
	}
	if a.flow.SrcPort != b.flow.SrcPort {
		return a.flow.SrcPort < b.flow.SrcPort
	}
	if a.flow.DstPort != b.flow.DstPort {
		return a.flow.DstPort < b.flow.DstPort
	}
	if a.flow.Proto != b.flow.Proto {
		return a.flow.Proto < b.flow.Proto
	}
	return !a.has && b.has
}

// Render formats patterns as a Figure 14 style listing.
func Render(pats []Pattern) string {
	var b strings.Builder
	for _, p := range pats {
		fmt.Fprintln(&b, p.String())
	}
	return b.String()
}

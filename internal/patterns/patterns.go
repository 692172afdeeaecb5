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
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// Relations is the packet-level causal relation set of a diagnosis set,
// the §4.4 input, held the way phase 1 of the aggregation reads it: one
// group per exact culprit <packet flow, NF>, the groups in culpritCmp
// order, each group's victim sides in relation order. RelationsFromDiagnoses
// is its only constructor; no relation is ever a row of its own.
type Relations struct {
	groups []culpritGroup
	// n counts the relations and grand sums their scores, added in
	// relation order.
	n     int
	grand float64
}

// culpritGroup is the relations that share one exact culprit <packet
// flow, NF>: their victim sides, as AutoFocus items weighted by the
// relation's score.
type culpritGroup struct {
	flow packet.FiveTuple
	// has is false when the culprit packets never reached egress, so
	// their five-tuple is unknown (§5 records tuples only at the end of
	// the graph).
	has      bool
	nf, kind string
	items    []autofocus.Item
}

// Len returns the number of packet-level relations.
func (r *Relations) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// flowKey is a culprit packet's flow as its group sees it.
type flowKey struct {
	has  bool
	flow packet.FiveTuple
}

// causeRun is one cause's relations: consecutive relations that share a
// victim side and a score.
type causeRun struct {
	item autofocus.Item
	n    int
}

// RelationsFromDiagnoses explodes per-victim diagnoses into packet-level
// causal relations: each cause's score is split evenly across its culprit
// packets (the PreSet packets at the culprit NF), at most
// MaxCulpritsPerCause of them. A cause without culprit packets is one
// relation with an unknown culprit flow; a culprit journey index outside
// the store makes no relation, and its share goes to no other culprit.
//
// The relations are grouped as they are made. A first pass gives each
// relation its group, keyed by integers, and counts the groups; a second
// carves every group's items out of one array at exact size and fills
// them in relation order.
func RelationsFromDiagnoses(st *tracestore.Store, diags []core.Diagnosis, cfg Config) *Relations {
	cfg.setDefaults()
	maxCulprits := cfg.MaxCulpritsPerCause
	nRel, nCause := 0, 0
	for di := range diags {
		for ci := range diags[di].Causes {
			nRel += max(1, min(len(diags[di].Causes[ci].CulpritJourneys), maxCulprits))
			nCause++
		}
	}
	// A group is keyed by two numbers: its NF's CompID (names the store
	// does not know are numbered after its components) and its flow's
	// number, given the first time the flow is seen. flowOf remembers each
	// journey's flow number, so most relations find their group without
	// hashing a tuple.
	var (
		groupOf = make([]int32, 0, nRel) // each relation's group id
		runs    = make([]causeRun, 0, nCause)
		flowOf  = make([]int32, len(st.Journeys)) // by journey: flow number + 1, 0 until seen
		flowIDs = make(map[flowKey]int32)
		flows   []flowKey // by flow number
		ids     = make(map[uint64]int32)
		keys    []uint64 // by group id: NF << 32 | flow number
		counts  []int    // by group id
		unknown []string // NF names the store does not know
		picks   = samplePicks(diags, maxCulprits, cfg.Workers)
		grand   float64
	)
	flowNum := func(k flowKey) int32 {
		f, ok := flowIDs[k]
		if !ok {
			f = int32(len(flows))
			flowIDs[k] = f
			flows = append(flows, k)
		}
		return f
	}
	group := func(nf, flow int32) int32 {
		k := uint64(nf)<<32 | uint64(flow)
		id, ok := ids[k]
		if !ok {
			id = int32(len(keys))
			ids[k] = id
			keys = append(keys, k)
			counts = append(counts, 0)
		}
		counts[id]++
		return id
	}
	nComps := st.NumComps()
	for di := range diags {
		d := &diags[di]
		victim := autofocus.Item{NF: d.Victim.Comp, Kind: st.KindOf(d.Victim.Comp)}
		if d.Victim.HasTuple {
			victim.Flow = d.Victim.Tuple // else the zero tuple, which aggregates to * buckets
		}
		for ci := range d.Causes {
			c := &d.Causes[ci]
			nf := int32(st.CompIDOf(c.Comp))
			if nf == int32(tracestore.NoComp) {
				i := slices.Index(unknown, c.Comp)
				if i < 0 {
					i = len(unknown)
					unknown = append(unknown, c.Comp)
				}
				nf = int32(nComps + i)
			}
			run := causeRun{item: victim}
			culprits, sampled := c.CulpritJourneys, []int(nil)
			count := len(culprits)
			if count > maxCulprits {
				sampled, count = picks[count], maxCulprits
			}
			if count == 0 {
				run.item.Weight, run.n = c.Score, 1
				groupOf = append(groupOf, group(nf, flowNum(flowKey{})))
				grand += c.Score
				runs = append(runs, run)
				continue
			}
			run.item.Weight = c.Score / float64(count)
			for i := 0; i < count; i++ {
				jIdx := culprits[i]
				if sampled != nil {
					jIdx = culprits[sampled[i]]
				}
				if jIdx < 0 || jIdx >= len(st.Journeys) {
					continue
				}
				f := flowOf[jIdx] - 1
				if f < 0 {
					j := &st.Journeys[jIdx]
					f = flowNum(flowKey{has: j.HasTuple, flow: j.Tuple})
					flowOf[jIdx] = f + 1
				}
				groupOf = append(groupOf, group(nf, f))
				grand += run.item.Weight
				run.n++
			}
			runs = append(runs, run)
		}
	}

	// Carve every group's items out of one array at its exact size, deal
	// each relation's victim side into its group's next slot, then put the
	// groups in culpritCmp order.
	groups := make([]culpritGroup, len(keys))
	items := make([]autofocus.Item, len(groupOf))
	next := counts // by group id, from here on: the group's next free slot
	off := 0
	for id, k := range keys {
		g := &groups[id]
		nf, fk := int(k>>32), flows[uint32(k)]
		g.flow, g.has = fk.flow, fk.has
		if nf < nComps {
			g.nf = st.CompName(tracestore.CompID(nf))
			g.kind = st.KindOfID(tracestore.CompID(nf))
		} else {
			g.nf = unknown[nf-nComps]
			g.kind = g.nf // what KindOf answers for a name it does not know
		}
		end := off + counts[id]
		g.items, next[id], off = items[off:end:end], off, end
	}
	r := 0
	for _, run := range runs {
		for range run.n {
			id := groupOf[r]
			items[next[id]] = run.item
			next[id]++
			r++
		}
	}
	slices.SortFunc(groups, func(a, b culpritGroup) int { return culpritCmp(&a, &b) })
	return &Relations{groups: groups, n: len(groupOf), grand: grand}
}

// samplePicks draws the culprits of every cause with more than k of them:
// for each such culprit count n, the k sorted picks of
// rand.New(rand.NewSource(n*2654435761+12345)).Perm(n)[:k], a
// deterministic random subsample. A stride sample would alias against
// periodic arrival patterns (e.g. every third packet belonging to one
// flow) and silently drop whole flows. The picks depend on n alone, so
// each n is drawn once, across the workers, each worker reseeding one
// source of its own.
func samplePicks(diags []core.Diagnosis, k, workers int) map[int][]int {
	picks := make(map[int][]int)
	var ns []int
	for di := range diags {
		for ci := range diags[di].Causes {
			if n := len(diags[di].Causes[ci].CulpritJourneys); n > k {
				if _, ok := picks[n]; !ok {
					picks[n] = nil
					ns = append(ns, n)
				}
			}
		}
	}
	drawn := make([][]int, len(ns))
	w := par.Workers(workers, len(ns))
	par.Do(w, w, func(wi int) {
		var rng *rand.Rand
		for i := wi; i < len(ns); i += w {
			seed := int64(ns[i])*2654435761 + 12345
			if rng == nil {
				rng = rand.New(rand.NewSource(seed))
			} else {
				rng.Seed(seed)
			}
			drawn[i] = permPrefix(rng, ns[i], k)
		}
	})
	for i, n := range ns {
		picks[n] = drawn[i]
	}
	return picks
}

// permPrefix returns rng.Perm(n)[:k], sorted, without Perm's n-slot array.
// Perm sets m[i], m[j] = m[j], i with j = Intn(i+1) for each i in turn.
// While i < k that touches the kept slots only; after it, a kept slot
// j < k can only receive the value i, and nothing moves out of a slot past
// k into one below it. So the draws are the same and the rest of the
// array is never needed.
func permPrefix(rng *rand.Rand, n, k int) []int {
	p := make([]int, k)
	for i := 0; i < k; i++ {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	for i := k; i < n; i++ {
		if j := rng.Intn(i + 1); j < k {
			p[j] = i
		}
	}
	slices.Sort(p)
	return p
}

// victimAggKey identifies an intermediate victim aggregate.
type victimAggKey struct {
	flow autofocus.FlowAgg
	nf   autofocus.NFAgg
}

// Aggregate runs the two-phase aggregation and returns the ranked patterns.
func Aggregate(rels *Relations, cfg Config) []Pattern {
	//mslint:allow ctxflow non-ctx convenience wrapper; cancellable path is AggregateContext
	out, _ := AggregateContext(context.Background(), rels, cfg)
	return out
}

// AggregateContext is Aggregate with cooperative cancellation: each phase's
// AutoFocus fan-out checks ctx between groups, and a cancelled context
// returns nil patterns with ctx's error. With a background context the
// output is identical to Aggregate.
func AggregateContext(ctx context.Context, rels *Relations, cfg Config) ([]Pattern, error) {
	cfg.setDefaults()
	if rels.Len() == 0 {
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
		reg.Counter("microscope_patterns_relations_total").Add(int64(rels.n))
		phaseStart = time.Now() //mslint:allow nondet phase latency sample for obs histograms, never in the pattern output
	}
	groups := rels.groups

	// Phase 1: aggregate the victim dimensions within each culprit group.
	// The groups are independent; results land in group-order slots so
	// the phase-2 assembly below sees exactly the sequential order. Each
	// worker keeps one AutoFocus scratch for both phases.
	phase1 := make([][]autofocus.Pattern, len(groups))
	scratch := make([]autofocus.Scratch, par.Workers(cfg.Workers, len(groups)))
	var leaves, cells atomic.Int64 // AutoFocus work of both phases, for obs
	focus := func(w int, items []autofocus.Item, threshold float64) []autofocus.Pattern {
		pats, st := scratch[w].AggregateStats(items, autofocus.Config{Threshold: threshold})
		leaves.Add(int64(st.Leaves))
		cells.Add(int64(st.Cells))
		return pats
	}
	err := par.DoWorkersCtx(ctx, len(groups), len(scratch), func(w, gi int) {
		phase1[gi] = focus(w, groups[gi].items, phase1Threshold)
	})
	if err != nil {
		return nil, err
	}
	if reg != nil {
		reg.Counter("microscope_patterns_groups_total{phase=\"victims\"}").Add(int64(len(groups)))
		phaseNS("victims", phaseStart)
		phaseStart = time.Now() //mslint:allow nondet phase latency sample for obs histograms, never in the pattern output
	}

	// Phase 2 input: per victim aggregate, in first-seen order, the
	// culprit-side items in group order.
	vaIDs := make(map[victimAggKey]int)
	var (
		vaOrder []victimAggKey
		phase2  [][]autofocus.Item
	)
	for gi := range groups {
		g := &groups[gi]
		cf := g.flow
		if !g.has {
			cf = packet.FiveTuple{}
		}
		for _, va := range phase1[gi] {
			vk := victimAggKey{flow: va.Flow, nf: va.NF}
			id, seen := vaIDs[vk]
			if !seen {
				id = len(vaOrder)
				vaIDs[vk] = id
				vaOrder = append(vaOrder, vk)
				phase2 = append(phase2, nil)
			}
			phase2[id] = append(phase2[id], autofocus.Item{Flow: cf, NF: g.nf, Kind: g.kind, Weight: va.Weight})
		}
	}

	// Phase 2 fan-out: aggregate culprit dimensions per victim aggregate;
	// apply the global significance threshold. Same slot merge as phase 1.
	phase2Out := make([][]autofocus.Pattern, len(vaOrder))
	if w := par.Workers(cfg.Workers, len(vaOrder)); w > len(scratch) {
		scratch = append(scratch, make([]autofocus.Scratch, w-len(scratch))...)
	}
	err = par.DoWorkersCtx(ctx, len(vaOrder), len(scratch), func(w, vi int) {
		items := phase2[vi]
		var groupW float64
		for i := range items {
			groupW += items[i].Weight
		}
		if groupW <= 0 {
			return
		}
		// Local threshold chosen so the reported weight is significant
		// globally: w >= th * grand.
		local := cfg.Threshold * rels.grand / groupW
		if local > 1 {
			return // group too light to ever matter
		}
		phase2Out[vi] = focus(w, items, local)
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
	slices.SortStableFunc(out, func(a, b Pattern) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return strings.Compare(text(a), text(b))
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

// culpritCmp orders culprit groups by NF name, then flow, then a group
// without a known flow before one with it.
func culpritCmp(a, b *culpritGroup) int {
	af, bf := &a.flow, &b.flow
	switch {
	case a.nf != b.nf:
		return strings.Compare(a.nf, b.nf)
	case af.SrcIP != bf.SrcIP:
		return cmp.Compare(af.SrcIP, bf.SrcIP)
	case af.DstIP != bf.DstIP:
		return cmp.Compare(af.DstIP, bf.DstIP)
	case af.SrcPort != bf.SrcPort:
		return cmp.Compare(af.SrcPort, bf.SrcPort)
	case af.DstPort != bf.DstPort:
		return cmp.Compare(af.DstPort, bf.DstPort)
	case af.Proto != bf.Proto:
		return cmp.Compare(af.Proto, bf.Proto)
	case a.has != b.has:
		if a.has {
			return 1
		}
		return -1
	}
	return 0
}

// Render formats patterns as a Figure 14 style listing.
func Render(pats []Pattern) string {
	var b strings.Builder
	for _, p := range pats {
		fmt.Fprintln(&b, p.String())
	}
	return b.String()
}

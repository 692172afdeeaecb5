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
	"math"
	"math/bits"
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
// order, each group's relations already added into its distinct victim
// sides. RelationsFromDiagnoses is its only constructor; no relation is
// ever a row of its own.
type Relations struct {
	groups []culpritGroup
	// n counts the relations and grand sums their scores, added in
	// relation order.
	n     int
	grand float64
}

// culpritGroup is the relations that share one exact culprit <packet
// flow, NF>, as phase 1's AutoFocus leaves.
type culpritGroup struct {
	flow packet.FiveTuple
	// has is false when the culprit packets never reached egress, so
	// their five-tuple is unknown (§5 records tuples only at the end of
	// the graph).
	has      bool
	nf, kind string
	// leaves are the group's distinct victim sides in the order of their
	// first relation, each weighing its relations' scores summed in
	// relation order, and total sums every relation's score in relation
	// order: the additions grouping one item per relation would make.
	leaves []autofocus.Item
	total  float64
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

// victimKey is what makes two diagnoses' victim sides one AutoFocus leaf.
type victimKey struct {
	flow packet.FiveTuple
	nf   string
}

// causeRun is one cause's relations: consecutive relations that share a
// victim side (its number) and a score.
type causeRun struct {
	victim int32
	n      int32
	weight float64
}

// RelationsFromDiagnoses explodes per-victim diagnoses into packet-level
// causal relations: each cause's score is split evenly across its culprit
// packets (the PreSet packets at the culprit NF), at most
// MaxCulpritsPerCause of them. A cause without culprit packets is one
// relation with an unknown culprit flow; a culprit journey index outside
// the store makes no relation, and its share goes to no other culprit.
//
// The relations are grouped as they are made. A first pass numbers each
// diagnosis's victim side and gives each relation its group through
// arrays, and counts the groups; a second deals every relation's cause
// into its group's slots of one array at exact size; a third adds each
// group's relations into its leaves, one per victim side, found by number.
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
	// journey's flow number and groupAt each NF's group of each flow
	// number, so a relation finds its group without hashing anything.
	var (
		groupOf   = make([]int32, 0, nRel) // each relation's group id
		runs      = make([]causeRun, 0, nCause)
		victimIDs = make(map[victimKey]int32)
		victims   []autofocus.Item                  // by victim number
		flowOf    = make([]int32, len(st.Journeys)) // by journey: flow number + 1, 0 until seen
		flowIDs   = make(map[flowKey]int32)
		flows     []flowKey // by flow number
		groupAt   [][]int32 // by NF, then flow number: group id + 1, 0 until seen
		keys      []uint64  // by group id: NF << 32 | flow number
		counts    []int32   // by group id
		unknown   []string  // NF names the store does not know
		picks     = samplePicks(diags, maxCulprits, cfg.Workers)
		grand     float64
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
		at := groupAt[nf]
		if int(flow) >= len(at) {
			at = slices.Grow(at, len(flows)-len(at))[:len(flows)]
			groupAt[nf] = at
		}
		id := at[flow] - 1
		if id < 0 {
			id = int32(len(keys))
			at[flow] = id + 1
			keys = append(keys, uint64(nf)<<32|uint64(flow))
			counts = append(counts, 0)
		}
		counts[id]++
		return id
	}
	nComps := st.NumComps()
	groupAt = make([][]int32, nComps)
	for di := range diags {
		d := &diags[di]
		vk := victimKey{nf: d.Victim.Comp}
		if d.Victim.HasTuple {
			vk.flow = d.Victim.Tuple // else the zero tuple, which aggregates to * buckets
		}
		victim, ok := victimIDs[vk]
		if !ok {
			victim = int32(len(victims))
			victimIDs[vk] = victim
			victims = append(victims, autofocus.Item{Flow: vk.flow, NF: vk.nf, Kind: st.KindOf(vk.nf)})
		}
		for ci := range d.Causes {
			c := &d.Causes[ci]
			nf := int32(st.CompIDOf(c.Comp))
			if nf == int32(tracestore.NoComp) {
				i := slices.Index(unknown, c.Comp)
				if i < 0 {
					i = len(unknown)
					unknown = append(unknown, c.Comp)
					groupAt = append(groupAt, nil)
				}
				nf = int32(nComps + i)
			}
			run := causeRun{victim: victim}
			culprits, sampled := c.CulpritJourneys, []int(nil)
			count := len(culprits)
			if count > maxCulprits {
				sampled, count = picks[count], maxCulprits
			}
			if count == 0 {
				run.weight, run.n = c.Score, 1
				groupOf = append(groupOf, group(nf, flowNum(flowKey{})))
				grand += c.Score
				runs = append(runs, run)
				continue
			}
			run.weight = c.Score / float64(count)
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
				grand += run.weight
				run.n++
			}
			runs = append(runs, run)
		}
	}

	// Deal each relation's cause into its group's next slot, so every
	// group's relations lie together in relation order.
	next := make([]int32, len(keys)) // by group id: the group's next free slot
	off := int32(0)
	for id, n := range counts {
		next[id], off = off, off+n
	}
	slot := make([]int32, len(groupOf)) // by slot: the relation's run
	r := 0
	for ri, run := range runs {
		for range run.n {
			id := groupOf[r]
			slot[next[id]] = int32(ri)
			next[id]++
			r++
		}
	}

	// Count each group's victim sides, then add its relations into its
	// leaves, carved from one array at exact size: leafOf[v] is victim
	// side v's leaf in the group stamp[v] names (group id + 1).
	stamp := make([]int32, len(victims))
	nLeaves, end := 0, int32(0)
	for id, n := range counts {
		for _, ri := range slot[end : end+n] {
			if v := runs[ri].victim; stamp[v] != int32(id)+1 {
				stamp[v] = int32(id) + 1
				nLeaves++
			}
		}
		end += n
	}
	clear(stamp)
	groups := make([]culpritGroup, len(keys))
	leaves := make([]autofocus.Item, 0, nLeaves)
	leafOf := make([]int32, len(victims))
	end = 0
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
		first := len(leaves)
		for _, ri := range slot[end : end+counts[id]] {
			run := &runs[ri]
			g.total += run.weight
			if v := run.victim; stamp[v] != int32(id)+1 {
				stamp[v], leafOf[v] = int32(id)+1, int32(len(leaves))
				leaves = append(leaves, victims[v])
				leaves[len(leaves)-1].Weight = run.weight
			} else {
				leaves[leafOf[v]].Weight += run.weight
			}
		}
		end += counts[id]
		g.leaves = leaves[first:len(leaves):len(leaves)]
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
		var src rand.Source
		var picked []uint64
		for i := wi; i < len(ns); i += w {
			seed := int64(ns[i])*2654435761 + 12345
			if src == nil {
				src = rand.NewSource(seed)
			} else {
				src.Seed(seed)
			}
			drawn[i], picked = permPrefix(src, ns[i], k, picked)
		}
	})
	for i, n := range ns {
		picks[n] = drawn[i]
	}
	return picks
}

// permPrefix returns rand.New(src).Perm(n)[:k], sorted, without Perm's
// n-slot array; picked is a bit set it reuses. Perm sets m[i], m[j] =
// m[j], i with j = Intn(i+1) for each i in turn. While i < k that touches
// the kept slots only; after it, a kept slot j < k can only receive the
// value i, and nothing moves out of a slot past k into one below it. So
// the draws are the same and the rest of the array is never needed. The
// kept values are marked in picked and read back in order, which sorts
// them.
func permPrefix(src rand.Source, n, k int, picked []uint64) ([]int, []uint64) {
	p := make([]int, k)
	for i := 0; i < k; i++ {
		j := int31n(src, int32(i+1))
		p[i] = p[j]
		p[j] = i
	}
	for i := k; i < n; i++ {
		if j := int(int31n(src, int32(i+1))); j < k {
			p[j] = i
		}
	}
	words := (n + 63) / 64
	picked = slices.Grow(picked[:0], words)[:words]
	clear(picked)
	for _, v := range p {
		picked[v/64] |= 1 << (v % 64)
	}
	p = p[:0]
	for w, word := range picked {
		for ; word != 0; word &= word - 1 {
			p = append(p, w*64+bits.TrailingZeros64(word))
		}
	}
	return p, picked
}

// int31n is rand.New(src).Int31n(n): the same draws and the same value,
// for 0 < n. Int31n rejects a draw above 2³¹-1 - 2³¹%n; that bound is
// greater than 2³¹-1 - n, so it needs its division only when a draw lands
// in the top n values, and a draw costs the one division of v % n.
func int31n(src rand.Source, n int32) int32 {
	v := int32(src.Int63() >> 32)
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	if v > math.MaxInt32-n {
		for bound := int32(math.MaxInt32 - (1<<31)%uint32(n)); v > bound; {
			v = int32(src.Int63() >> 32)
		}
	}
	return v % n
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
	count := func(pats []autofocus.Pattern, st autofocus.Stats) []autofocus.Pattern {
		leaves.Add(int64(st.Leaves))
		cells.Add(int64(st.Cells))
		return pats
	}
	err := par.DoWorkersCtx(ctx, len(groups), len(scratch), func(w, gi int) {
		g := &groups[gi]
		phase1[gi] = count(scratch[w].AggregateLeaves(g.leaves, g.total, autofocus.Config{Threshold: phase1Threshold}))
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
	// culprit sides as AutoFocus leaves in group order, and their total
	// summed in the same order. A first pass numbers the aggregates and
	// counts their patterns, so a second carves the leaves from one array.
	// A group gives an aggregate at most one pattern, and groups differ in
	// their culprit side unless it is the zero tuple: every group of
	// unknown flow at an NF shows it, whatever tuple its journeys carry.
	// Such a side is looked up, and a repeat adds into its first leaf.
	nPhase1 := 0
	for _, pats := range phase1 {
		nPhase1 += len(pats)
	}
	vaIDs := make(map[victimAggKey]int)
	var (
		vaOrder []victimAggKey
		sizes   []int                     // by victim aggregate
		vaOf    = make([]int, 0, nPhase1) // by phase-1 pattern, in group order
	)
	for gi := range groups {
		for _, va := range phase1[gi] {
			vk := victimAggKey{flow: va.Flow, nf: va.NF}
			id, seen := vaIDs[vk]
			if !seen {
				id = len(vaOrder)
				vaIDs[vk] = id
				vaOrder = append(vaOrder, vk)
				sizes = append(sizes, 0)
			}
			sizes[id]++
			vaOf = append(vaOf, id)
		}
	}
	phase2 := make([][]autofocus.Item, len(vaOrder))
	totals := make([]float64, len(vaOrder))
	culprits := make([]autofocus.Item, nPhase1)
	off := 0
	for id, n := range sizes {
		phase2[id], off = culprits[off:off:off+n], off+n
	}
	type zeroSide struct {
		va int
		nf string
	}
	zeroAt := make(map[zeroSide]int) // a zero-tuple culprit side's leaf in its aggregate's list
	p := 0
	for gi := range groups {
		g := &groups[gi]
		cf := g.flow
		if !g.has {
			cf = packet.FiveTuple{}
		}
		for _, va := range phase1[gi] {
			id := vaOf[p]
			p++
			totals[id] += va.Weight
			if cf == (packet.FiveTuple{}) {
				k := zeroSide{id, g.nf}
				if i, ok := zeroAt[k]; ok {
					phase2[id][i].Weight += va.Weight
					continue
				}
				zeroAt[k] = len(phase2[id])
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
		groupW := totals[vi]
		if groupW <= 0 {
			return
		}
		// Local threshold chosen so the reported weight is significant
		// globally: w >= th * grand.
		local := cfg.Threshold * rels.grand / groupW
		if local > 1 {
			return // group too light to ever matter
		}
		phase2Out[vi] = count(scratch[w].AggregateLeaves(phase2[vi], groupW, autofocus.Config{Threshold: local}))
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

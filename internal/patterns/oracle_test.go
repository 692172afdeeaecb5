package patterns_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"microscope/internal/autofocus"
	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/packet"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
	"microscope/internal/tracestore"
)

// The reference below is the pattern tail as it was before relations were
// grouped as they are built: every relation materialised as a row of four
// strings, then grouped through a string-keyed map, with a fresh random
// source, a full permutation and a sort for every sampled cause. It is kept
// sequential and without observability; the tail must match it exactly.

// oracleRelation is one packet-level causal relation row.
type oracleRelation struct {
	CulpritFlow    packet.FiveTuple
	CulpritHasFlow bool
	CulpritNF      string
	CulpritKind    string

	VictimFlow    packet.FiveTuple
	VictimHasFlow bool
	VictimNF      string
	VictimKind    string

	Score float64
}

// oracleRelations explodes diagnoses into relation rows.
func oracleRelations(st *tracestore.Store, diags []core.Diagnosis, maxCulprits int) []oracleRelation {
	if maxCulprits == 0 {
		maxCulprits = 256
	}
	var out []oracleRelation
	for di := range diags {
		d := &diags[di]
		victim := oracleRelation{
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
			if len(culprits) > maxCulprits {
				rng := rand.New(rand.NewSource(int64(len(culprits))*2654435761 + 12345))
				perm := rng.Perm(len(culprits))[:maxCulprits]
				sort.Ints(perm)
				sampled := make([]int, len(perm))
				for i, p := range perm {
					sampled[i] = culprits[p]
				}
				culprits = sampled
			}
			if len(culprits) == 0 {
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

type oracleCulpritKey struct {
	flow packet.FiveTuple
	has  bool
	nf   string
}

type oracleVictimAggKey struct {
	flow autofocus.FlowAgg
	nf   autofocus.NFAgg
}

// oracleTail aggregates relation rows with the two-phase AutoFocus of
// patterns.Aggregate at the given threshold.
func oracleTail(rels []oracleRelation, threshold float64) []patterns.Pattern {
	if threshold == 0 {
		threshold = patterns.DefaultThreshold
	}
	if len(rels) == 0 {
		return nil
	}
	var grand float64
	for i := range rels {
		grand += rels[i].Score
	}
	type culpritGroup struct {
		kind  string
		items []autofocus.Item
	}
	groups := make(map[oracleCulpritKey]*culpritGroup)
	var order []oracleCulpritKey
	for i := range rels {
		r := &rels[i]
		k := oracleCulpritKey{flow: r.CulpritFlow, has: r.CulpritHasFlow, nf: r.CulpritNF}
		g := groups[k]
		if g == nil {
			g = &culpritGroup{kind: r.CulpritKind}
			groups[k] = g
			order = append(order, k)
		}
		vf := r.VictimFlow
		if !r.VictimHasFlow {
			vf = packet.FiveTuple{}
		}
		g.items = append(g.items, autofocus.Item{Flow: vf, NF: r.VictimNF, Kind: r.VictimKind, Weight: r.Score})
	}
	sort.Slice(order, func(i, j int) bool { return oracleCulpritKeyLess(order[i], order[j]) })

	phase2 := make(map[oracleVictimAggKey][]autofocus.Item)
	var vaOrder []oracleVictimAggKey
	for _, ck := range order {
		g := groups[ck]
		for _, va := range autofocus.Aggregate(g.items, autofocus.Config{Threshold: 0.05}) {
			vk := oracleVictimAggKey{flow: va.Flow, nf: va.NF}
			if _, seen := phase2[vk]; !seen {
				vaOrder = append(vaOrder, vk)
			}
			cf := ck.flow
			if !ck.has {
				cf = packet.FiveTuple{}
			}
			phase2[vk] = append(phase2[vk], autofocus.Item{Flow: cf, NF: ck.nf, Kind: g.kind, Weight: va.Weight})
		}
	}
	var out []patterns.Pattern
	for _, vk := range vaOrder {
		items := phase2[vk]
		var groupW float64
		for i := range items {
			groupW += items[i].Weight
		}
		if groupW <= 0 {
			continue
		}
		local := threshold * grand / groupW
		if local > 1 {
			continue
		}
		for _, ca := range autofocus.Aggregate(items, autofocus.Config{Threshold: local}) {
			out = append(out, patterns.Pattern{
				CulpritFlow: ca.Flow, CulpritNF: ca.NF,
				VictimFlow: vk.flow, VictimNF: vk.nf,
				Score: ca.Weight,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].String() < out[j].String()
	})
	return out
}

func oracleCulpritKeyLess(a, b oracleCulpritKey) bool {
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

// generatedDiagnoses builds a store of bare journeys and diagnoses over it
// with the cases the tail must treat exactly as the reference does: tied
// and zero scores, culprits and victims without tuples (some of them with a
// tuple value all the same), NF names the store does not know, causes with
// 0, 256, 257 and thousands of culprits, and culprit indices outside the
// store.
func generatedDiagnoses(seed int64) (*tracestore.Store, []core.Diagnosis) {
	rng := rand.New(rand.NewSource(seed))
	st := tracestore.Build(&collector.Trace{Meta: collector.Meta{Components: []collector.ComponentMeta{
		{Name: "source", Kind: "source"},
		{Name: "fw1", Kind: "fw"},
		{Name: "fw2", Kind: "fw"},
		{Name: "nat1", Kind: "nat"},
		{Name: "vpn1", Kind: "vpn"},
	}}})
	tuples := make([]packet.FiveTuple, 60)
	for i := range tuples {
		tuples[i] = packet.FiveTuple{
			SrcIP:   packet.IPFromOctets(10, byte(i%3), byte(i%7), byte(i)),
			DstIP:   packet.IPFromOctets(23, 0, byte(i%5), 1),
			SrcPort: uint16(1024 + i%11),
			DstPort: uint16(80 + i%2),
			Proto:   []uint8{packet.ProtoTCP, packet.ProtoUDP}[i%2],
		}
	}
	for i := 0; i < 8000; i++ {
		j := tracestore.Journey{Tuple: tuples[rng.Intn(len(tuples))], HasTuple: rng.Intn(5) != 0}
		if !j.HasTuple && rng.Intn(2) == 0 {
			j.Tuple = packet.FiveTuple{}
		}
		st.Journeys = append(st.Journeys, j)
	}
	comps := []string{"source", "fw1", "fw2", "nat1", "vpn1", "ghost", ""}
	scores := []float64{0, 1, 2.5, 10, 10, 40}
	counts := []int{0, 1, 3, 40, 256, 257, 3000, 4500}
	var diags []core.Diagnosis
	for v := 0; v < 90; v++ {
		d := core.Diagnosis{Victim: core.Victim{
			Comp:     comps[rng.Intn(len(comps))],
			Tuple:    tuples[rng.Intn(len(tuples))],
			HasTuple: rng.Intn(4) != 0,
		}}
		for c := rng.Intn(5); c >= 0; c-- {
			cause := core.Cause{Comp: comps[rng.Intn(len(comps))], Score: scores[rng.Intn(len(scores))]}
			if rng.Intn(4) == 0 {
				cause.Score = rng.Float64() * 50
			}
			n := counts[rng.Intn(len(counts))]
			if rng.Intn(3) == 0 {
				n = rng.Intn(600)
			}
			for i := 0; i < n; i++ {
				cause.CulpritJourneys = append(cause.CulpritJourneys, rng.Intn(len(st.Journeys)+6)-3)
			}
			d.Causes = append(d.Causes, cause)
		}
		diags = append(diags, d)
	}
	return st, diags
}

// TestTailMatchesOracle holds the pattern tail — relations grouped as they
// are made, then both AutoFocus phases — to the reference above: the same
// relation count and the same patterns, scores and rendered bytes, at
// every worker count.
func TestTailMatchesOracle(t *testing.T) {
	type input struct {
		name  string
		st    *tracestore.Store
		diags []core.Diagnosis
		cfg   patterns.Config
	}
	var inputs []input
	if !testing.Short() {
		res := pipeline.Run(goldenTrace(), pipeline.Config{
			Diagnosis:    core.Config{MaxVictims: goldenVictims},
			SkipPatterns: true,
		})
		inputs = append(inputs, input{"eval16", res.Store, res.Diagnoses, patterns.Config{}})
	}
	for seed := int64(1); seed <= 3; seed++ {
		st, diags := generatedDiagnoses(seed)
		name := fmt.Sprintf("generated/%d", seed)
		inputs = append(inputs,
			input{name, st, diags, patterns.Config{}},
			input{name + "/k=7", st, diags, patterns.Config{MaxCulpritsPerCause: 7}},
			input{name + "/th=0.05", st, diags, patterns.Config{Threshold: 0.05}},
		)
	}
	for _, in := range inputs {
		oracleRels := oracleRelations(in.st, in.diags, in.cfg.MaxCulpritsPerCause)
		want := oracleTail(oracleRels, in.cfg.Threshold)
		if len(want) == 0 {
			t.Fatalf("%s: the reference finds no patterns; the input tests nothing", in.name)
		}
		for _, workers := range []int{1, 2, 8} {
			cfg := in.cfg
			cfg.Workers = workers
			rels := patterns.RelationsFromDiagnoses(in.st, in.diags, cfg)
			got, err := patterns.AggregateContext(context.Background(), rels, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rels.Len() != len(oracleRels) {
				t.Errorf("%s workers=%d: %d relations, reference %d", in.name, workers, rels.Len(), len(oracleRels))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: patterns differ from the reference\n--- got\n%s--- want\n%s",
					in.name, workers, patterns.Render(got), patterns.Render(want))
			} else if patterns.Render(got) != patterns.Render(want) {
				t.Errorf("%s workers=%d: rendered patterns differ", in.name, workers)
			}
		}
	}
}

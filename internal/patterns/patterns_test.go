package patterns

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"microscope/internal/autofocus"
	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

func trigTuple(sport, dport uint16) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.IPFromOctets(100, 0, 0, 1),
		DstIP:   packet.IPFromOctets(32, 0, 0, 1),
		SrcPort: sport,
		DstPort: dport,
		Proto:   packet.ProtoTCP,
	}
}

func bgTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.IPFromOctets(10, 3, byte(i>>8), byte(i)),
		DstIP:   packet.IPFromOctets(23, 7, byte(i), 9),
		SrcPort: uint16(10000 + i),
		DstPort: uint16(20000 + i),
		Proto:   packet.ProtoUDP,
	}
}

// fixture is a store of bare journeys over declared components: all
// RelationsFromDiagnoses reads of a store is its component kinds and its
// journeys' tuples.
type fixture struct{ st *tracestore.Store }

func newFixture(comps ...collector.ComponentMeta) *fixture {
	return &fixture{st: tracestore.Build(&collector.Trace{Meta: collector.Meta{Components: comps}})}
}

// journey adds a journey and returns its index.
func (f *fixture) journey(ft packet.FiveTuple, has bool) int {
	f.st.Journeys = append(f.st.Journeys, tracestore.Journey{Tuple: ft, HasTuple: has})
	return len(f.st.Journeys) - 1
}

var fixtureComps = []collector.ComponentMeta{
	{Name: "source", Kind: "source"},
	{Name: "fw2", Kind: "fw"},
	{Name: "nat1", Kind: "nat"},
	{Name: "vpn1", Kind: "vpn"},
}

func TestAggregateSyntheticRelations(t *testing.T) {
	f := newFixture(fixtureComps...)
	var diags []core.Diagnosis
	// Bug-triggering flows at fw2 hurt victims at fw2 — the §6.4 shape:
	// every victim blames each of nine trigger packets.
	var triggers []int
	for i := 0; i < 9; i++ {
		triggers = append(triggers, f.journey(trigTuple(uint16(2000+i), uint16(6000+i)), true))
	}
	for v := 0; v < 20; v++ {
		d := core.Diagnosis{Victim: core.Victim{Comp: "fw2", Tuple: bgTuple(v), HasTuple: true}}
		for _, j := range triggers {
			d.Causes = append(d.Causes, core.Cause{Comp: "fw2", Score: 5, CulpritJourneys: []int{j}})
		}
		diags = append(diags, d)
	}
	// Background noise relations.
	for i := 0; i < 50; i++ {
		diags = append(diags, core.Diagnosis{
			Victim: core.Victim{Comp: "vpn1", Tuple: bgTuple(2000 + i), HasTuple: true},
			Causes: []core.Cause{{Comp: "source", Score: 0.5, CulpritJourneys: []int{f.journey(bgTuple(1000+i), true)}}},
		})
	}
	rels := RelationsFromDiagnoses(f.st, diags, Config{})
	if rels.Len() != 9*20+50 {
		t.Fatalf("relations: got %d, want %d", rels.Len(), 9*20+50)
	}
	pats := Aggregate(rels, Config{Threshold: 0.01})
	if len(pats) == 0 {
		t.Fatal("no patterns")
	}
	// The dominant pattern must implicate fw2 with culprit flows from
	// 100.0.0.1.
	top := pats[0]
	if top.CulpritNF.String() != "fw2" {
		t.Errorf("top culprit NF: %v", top.CulpritNF)
	}
	if top.CulpritFlow.SrcLen == 0 ||
		top.CulpritFlow.SrcPrefix>>(32-top.CulpritFlow.SrcLen) !=
			packet.IPFromOctets(100, 0, 0, 1)>>(32-top.CulpritFlow.SrcLen) {
		t.Errorf("top culprit flow does not cover 100.0.0.1: %v", top.CulpritFlow)
	}
	// Aggregation must compress: far fewer patterns than relations.
	if len(pats) >= rels.Len()/2 {
		t.Errorf("no compression: %d patterns for %d relations", len(pats), rels.Len())
	}
}

func TestAggregateEmpty(t *testing.T) {
	if Aggregate(nil, Config{}) != nil {
		t.Error("nil relations should aggregate to nil")
	}
	f := newFixture(fixtureComps...)
	diags := []core.Diagnosis{{
		Victim: core.Victim{Comp: "fw2"},
		Causes: []core.Cause{{Comp: "fw2", Score: 3, CulpritJourneys: []int{-1, 7}}},
	}}
	rels := RelationsFromDiagnoses(f.st, diags, Config{})
	if rels.Len() != 0 || Aggregate(rels, Config{}) != nil {
		t.Errorf("out-of-range culprits only: %d relations, want none", rels.Len())
	}
}

func TestAggregateUnknownFlows(t *testing.T) {
	f := newFixture(fixtureComps...)
	diags := make([]core.Diagnosis, 2)
	for i := range diags {
		diags[i] = core.Diagnosis{
			Victim: core.Victim{Comp: "vpn1"},
			Causes: []core.Cause{{Comp: "nat1", Score: 10}},
		}
	}
	pats := Aggregate(RelationsFromDiagnoses(f.st, diags, Config{}), Config{Threshold: 0.01})
	if len(pats) == 0 {
		t.Fatal("unknown flows should still aggregate by NF")
	}
	if pats[0].CulpritNF.String() != "nat1" {
		t.Errorf("culprit NF: %v", pats[0].CulpritNF)
	}
}

func TestRenderFormat(t *testing.T) {
	pats := []Pattern{{
		CulpritFlow: autofocus.FlowAgg{
			SrcPrefix: packet.IPFromOctets(100, 0, 0, 1), SrcLen: 32,
			SrcPort: autofocus.PortRange{Lo: 2004, Hi: 2004},
			DstPort: autofocus.PortRange{Lo: 6004, Hi: 6004},
			Proto:   6,
		},
		CulpritNF: autofocus.NFAgg{Name: "fw2", Kind: "fw"},
		VictimFlow: autofocus.FlowAgg{
			SrcPort: autofocus.PortRange{Lo: 0, Hi: 65535},
			DstPort: autofocus.PortRange{Lo: 1024, Hi: 65535},
			Proto:   -1,
		},
		VictimNF: autofocus.NFAgg{Name: "fw2", Kind: "fw"},
		Score:    42,
	}}
	got := Render(pats)
	if !strings.Contains(got, "=>") || !strings.Contains(got, "100.0.0.1/32") || !strings.Contains(got, "fw2") {
		t.Errorf("Render: %q", got)
	}
}

// TestEndToEndBugPatterns is the §6.4 experiment in miniature: inject a
// firewall bug triggered by specific flows, diagnose, aggregate, and find
// the trigger flows among the top culprit patterns.
func TestEndToEndBugPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario test; skipped in -short mode")
	}
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 61,
		nfsim.ChainSpec{Name: "fw2", Kind: "fw", Rate: simtime.MPPS(0.8)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.8)},
	)
	trigger := trigTuple(2004, 6004)
	sim.InjectBug("fw2", &nfsim.SlowPath{
		Match: func(ft packet.FiveTuple) bool {
			return ft.SrcIP == packet.IPFromOctets(100, 0, 0, 1) &&
				ft.SrcPort >= 2000 && ft.SrcPort <= 2008
		},
		Rate: simtime.PPS(20_000),
	}, "bug")

	// Background traffic spreads across many distinct flows, as a real
	// trace does — individually negligible, so they roll up to wide
	// aggregates while the trigger flows stay sharp.
	iv := simtime.MPPS(0.4).Interval()
	var ems []traffic.Emission
	for i := 0; i < 2500; i++ {
		ems = append(ems, traffic.Emission{
			At: simtime.Time(simtime.Duration(i) * iv), Flow: bgTuple(i % 601), Size: 64, Burst: -1,
		})
	}
	sched := &traffic.Schedule{Emissions: ems}
	sched.InjectFlow(trigger, simtime.Time(simtime.Millisecond), 50, simtime.Duration(5*simtime.Microsecond), 64)
	sched.InjectFlow(trigTuple(2006, 6006), simtime.Time(3*simtime.Millisecond), 50, simtime.Duration(5*simtime.Microsecond), 64)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(200 * simtime.Millisecond))

	st := tracestore.Build(col.Trace(collector.MetaOf(sim)))
	diags := core.NewEngine(core.Config{}).Diagnose(st)
	if len(diags) == 0 {
		t.Fatal("no diagnoses")
	}
	rels := RelationsFromDiagnoses(st, diags, Config{})
	if rels.Len() == 0 {
		t.Fatal("no relations")
	}
	pats := Aggregate(rels, Config{Threshold: 0.01})
	if len(pats) == 0 {
		t.Fatal("no patterns")
	}
	// Some reported culprit aggregate must pinpoint the trigger flows at
	// fw2 with a specific source (the paper's Figure 14 shows 4 of 80
	// patterns containing the bug-triggering flows). A fully general
	// aggregate does not count.
	found := false
	for _, p := range pats {
		nfOK := p.CulpritNF.Name == "fw2" || (p.CulpritNF.Name == "" && p.CulpritNF.Kind == "fw")
		if nfOK && p.CulpritFlow.SrcLen >= 24 && p.CulpritFlow.Matches(trigger) {
			found = true
			break
		}
	}
	if !found {
		limit := len(pats)
		if limit > 15 {
			limit = 15
		}
		t.Errorf("trigger flow not pinpointed by any culprit pattern; top:\n%s", Render(pats[:limit]))
	}
	// Compression: the report should be far smaller than the relation set.
	if len(pats) > rels.Len()/4 {
		t.Errorf("poor compression: %d patterns from %d relations", len(pats), rels.Len())
	}
}

func TestRelationsFromDiagnosesShares(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 3, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	iv := simtime.MPPS(0.2).Interval()
	var ems []traffic.Emission
	for i := 0; i < 100; i++ {
		ems = append(ems, traffic.Emission{At: simtime.Time(simtime.Duration(i) * iv), Flow: bgTuple(i % 3), Size: 64, Burst: -1})
	}
	sim.LoadSchedule(&traffic.Schedule{Emissions: ems})
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	store := tracestore.Build(col.Trace(collector.MetaOf(sim)))

	diags := []core.Diagnosis{{
		Victim: core.Victim{Journey: 0, Comp: "fw1", Tuple: bgTuple(9), HasTuple: true},
		Causes: []core.Cause{{
			Comp: "fw1", Kind: core.CulpritLocalProcessing, Score: 12,
			CulpritJourneys: []int{0, 1, 2},
		}},
	}}
	rels := RelationsFromDiagnoses(store, diags, Config{})
	if rels.Len() != 3 {
		t.Fatalf("relations: got %d", rels.Len())
	}
	var sum float64
	for _, g := range rels.groups {
		if g.nf != "fw1" || g.kind != "fw" {
			t.Errorf("culprit NF, kind: %q, %q", g.nf, g.kind)
		}
		for _, it := range g.items {
			sum += it.Weight
			if it.NF != "fw1" || it.Kind != "fw" {
				t.Errorf("victim NF, kind: %q, %q", it.NF, it.Kind)
			}
		}
	}
	if sum < 11.99 || sum > 12.01 {
		t.Errorf("score conservation: %v", sum)
	}
}

func TestRelationsSubsampling(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 3, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	iv := simtime.MPPS(0.3).Interval()
	var ems []traffic.Emission
	for i := 0; i < 1200; i++ {
		ems = append(ems, traffic.Emission{At: simtime.Time(simtime.Duration(i) * iv), Flow: bgTuple(i % 5), Size: 64, Burst: -1})
	}
	sim.LoadSchedule(&traffic.Schedule{Emissions: ems})
	sim.Run(simtime.Time(50 * simtime.Millisecond))
	store := tracestore.Build(col.Trace(collector.MetaOf(sim)))

	many := make([]int, 1000)
	for i := range many {
		many[i] = i
	}
	diags := []core.Diagnosis{{
		Victim: core.Victim{Journey: 0, Comp: "fw1"},
		Causes: []core.Cause{{Comp: "fw1", Kind: core.CulpritLocalProcessing, Score: 100, CulpritJourneys: many}},
	}}
	rels := RelationsFromDiagnoses(store, diags, Config{MaxCulpritsPerCause: 64})
	if rels.Len() > 64 {
		t.Errorf("subsampling failed: %d relations", rels.Len())
	}
	var sum float64
	for _, g := range rels.groups {
		for _, it := range g.items {
			sum += it.Weight
		}
	}
	// Score conservation within the sampled set: each share is the
	// cause's score over the sampled count.
	if sum < 99 || sum > 101 {
		t.Errorf("score sum: %v", sum)
	}
}

// TestSamplerMatchesPerm holds the culprit sampler to what it replaces:
// the first k of rand.New(rand.NewSource(seed)).Perm(n), sorted, for n in
// (k, 20000]. Each n comes up twice, in a scrambled order, among the
// causes samplePicks draws for, at one worker and at three, so the
// reseeded sources serve many n each as a run uses them.
func TestSamplerMatchesPerm(t *testing.T) {
	const maxN = 20000
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 7, 256} {
		ns := []int{k + 1, k + 2, k + 3, 2 * k, 2*k + 1, 4096, maxN - 1, maxN}
		for len(ns) < 120 {
			ns = append(ns, k+1+rng.Intn(maxN-k))
		}
		ns = append(ns, ns...)
		rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
		var d core.Diagnosis
		for _, n := range ns {
			d.Causes = append(d.Causes, core.Cause{CulpritJourneys: make([]int, n)}, core.Cause{CulpritJourneys: make([]int, k)})
		}
		for _, workers := range []int{1, 3} {
			picks := samplePicks([]core.Diagnosis{d}, k, workers)
			for _, n := range ns {
				want := rand.New(rand.NewSource(int64(n)*2654435761 + 12345)).Perm(n)[:k]
				sort.Ints(want)
				if got := picks[n]; !slices.Equal(got, want) {
					t.Fatalf("k=%d n=%d workers=%d: picks %v, Perm gives %v", k, n, workers, got, want)
				}
			}
			if _, ok := picks[k]; ok {
				t.Fatalf("k=%d: drew picks for a cause of exactly k culprits", k)
			}
		}
	}
}

// TestRelationsAllocsBounded is the allocation budget of relation
// building: its arrays and maps as they grow with the group count, and one
// pick list per distinct sampled culprit count, but nothing per relation
// or per cause. The input makes about 43,000 relations of 400 causes in
// about 6,000 groups, so either would blow the budget.
func TestRelationsAllocsBounded(t *testing.T) {
	f := newFixture(fixtureComps...)
	for i := 0; i < 4000; i++ {
		f.journey(bgTuple(i%1000), i%7 != 0)
	}
	nfs := []string{"source", "fw2", "nat1", "vpn1"}
	var diags []core.Diagnosis
	for v := 0; v < 100; v++ {
		d := core.Diagnosis{Victim: core.Victim{Comp: nfs[v%4], Tuple: bgTuple(v), HasTuple: v%3 != 0}}
		for c := 0; c < 4; c++ {
			culprits := make([]int, 40+(v*c)%60)
			if c == 3 {
				culprits = make([]int, 300+v%2) // sampled: two distinct counts
			}
			for i := range culprits {
				culprits[i] = (v*97 + c*13 + i*31) % 4000
			}
			d.Causes = append(d.Causes, core.Cause{Comp: nfs[c], Score: float64(v + c), CulpritJourneys: culprits})
		}
		diags = append(diags, d)
	}
	rels := RelationsFromDiagnoses(f.st, diags, Config{})
	const budget = 150
	allocs := testing.AllocsPerRun(5, func() { RelationsFromDiagnoses(f.st, diags, Config{}) })
	t.Logf("%d relations in %d groups: %.0f allocations", rels.Len(), len(rels.groups), allocs)
	if rels.Len() < 40000 {
		t.Fatalf("fixture makes %d relations, want at least 40000", rels.Len())
	}
	if allocs > budget {
		t.Errorf("RelationsFromDiagnoses made %.0f allocations for %d relations, budget %d", allocs, rels.Len(), budget)
	}
}

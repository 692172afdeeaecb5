package autofocus

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// aggKeyLess is the canonical aggregate order as a less function, for the
// oracle's sorts.
func aggKeyLess(a, b aggKey) bool { return aggKeyCmp(&a, &b) < 0 }

// reuseCases is a sequence of item sets for one reused Scratch: the
// FuzzAggregate seeds, generated cases small and big in turn, cases whose
// items have empty NF names or kinds and tied integer weights, and an all
// zero-weight case, so the maps and slices grow, are cleared and refill.
func reuseCases() []struct {
	items []Item
	cfg   Config
} {
	var out []struct {
		items []Item
		cfg   Config
	}
	add := func(items []Item, cfg Config) {
		out = append(out, struct {
			items []Item
			cfg   Config
		}{items, cfg})
	}
	// FuzzAggregate's seed corpus.
	for seed := int64(0); seed < 8; seed++ {
		items, cfg := genCase(seed, false)
		items[0].NF, items[0].Kind, items[0].Weight = "fw1", "fw", 1
		items[0].Flow.SrcIP, items[0].Flow.SrcPort = 0, 0
		add(items, cfg)
	}
	for _, m := range []struct {
		seed     int64
		src      uint32
		sport    uint16
		nf, kind string
		w        float64
	}{{3, 0x0a000001, 1024, "", "fw", 2.5}, {4, 0xac100203, 80, "fw9", "", 0}} {
		items, cfg := genCase(m.seed, false)
		items[0].Flow.SrcIP, items[0].Flow.SrcPort = m.src, m.sport
		items[0].NF, items[0].Kind, items[0].Weight = m.nf, m.kind, m.w
		add(items, cfg)
	}
	rng := rand.New(rand.NewSource(42))
	for c := int64(100); c < 160; c++ {
		items, cfg := genCase(c, c%15 == 0)
		if c%3 == 0 {
			// Empty names and kinds, integer weights that tie.
			for i := range items {
				switch rng.Intn(4) {
				case 0:
					items[i].NF = ""
				case 1:
					items[i].Kind = ""
				case 2:
					items[i].NF, items[i].Kind = "", ""
				}
				items[i].Weight = float64(1 + rng.Intn(3))
			}
		}
		add(items, cfg)
	}
	zero, cfg := genCase(7, false)
	for i := range zero {
		zero[i].Weight = 0
	}
	add(zero, cfg)
	return out
}

// TestScratchReuseMatchesFresh drives one Scratch through reuseCases: each
// search must return what a search with fresh working memory returns,
// patterns and work counts alike, and what the exhaustive oracle returns.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var s Scratch
	for i, c := range reuseCases() {
		got, gotSt := s.AggregateStats(c.items, c.cfg)
		want, wantSt := new(Scratch).AggregateStats(c.items, c.cfg)
		if !reflect.DeepEqual(got, want) || gotSt != wantSt {
			t.Fatalf("case %d (%d items): reused scratch gave %v %+v, fresh %v %+v", i, len(c.items), got, gotSt, want, wantSt)
		}
		oracle := oracleAggregate(c.items, c.cfg)
		if len(got) != len(oracle) {
			t.Fatalf("case %d: %d patterns, oracle %d", i, len(got), len(oracle))
		}
		for k := range oracle {
			g, o := got[k], oracle[k]
			if g.Flow != o.Flow || g.NF != o.NF || g.Leaves != o.Leaves || math.Float64bits(g.Weight) != math.Float64bits(o.Weight) {
				t.Fatalf("case %d: pattern %d is %v (%d leaves), oracle %v (%d leaves)", i, k, g, g.Leaves, o, o.Leaves)
			}
		}
	}
}

// TestScratchAllocatesOnlyItsResult: once a Scratch has seen a search, the
// same search allocates the slice of patterns it returns and nothing else.
func TestScratchAllocatesOnlyItsResult(t *testing.T) {
	for _, seed := range []int64{1, 49} {
		items, cfg := genCase(seed, seed == 49)
		var s Scratch
		pats, _ := s.AggregateStats(items, cfg)
		want := 0.0
		if len(pats) > 0 {
			want = 1
		}
		if got := testing.AllocsPerRun(20, func() { s.AggregateStats(items, cfg) }); got != want {
			t.Errorf("%d items, %d patterns: a warm search allocates %.1f objects, want %.0f", len(items), len(pats), got, want)
		}
	}
}

// groupItems is the grouping AggregateLeaves expects of its caller, written
// with a plain map: one leaf per distinct <Flow, NF> in first-seen order,
// with the first item's Kind and the items' weights summed in item order,
// and the total of every item in item order.
func groupItems(items []Item) ([]Item, float64) {
	at := map[leafKey]int{}
	var leaves []Item
	var total float64
	for _, it := range items {
		total += it.Weight
		k := leafKey{it.Flow, it.NF}
		if i, ok := at[k]; ok {
			leaves[i].Weight += it.Weight
			continue
		}
		at[k] = len(leaves)
		leaves = append(leaves, it)
	}
	return leaves, total
}

// diffLeavesAgainstItems fails t unless AggregateLeaves over the grouped
// items answers what AggregateStats over the items does: the same
// aggregates and leaf counts, weights to the bit, and the same work.
func diffLeavesAgainstItems(t *testing.T, s *Scratch, items []Item, cfg Config) {
	t.Helper()
	want, wantSt := new(Scratch).AggregateStats(items, cfg)
	leaves, total := groupItems(items)
	got, gotSt := s.AggregateLeaves(leaves, total, cfg)
	if gotSt != wantSt || len(got) != len(want) {
		t.Fatalf("%d items, %d leaves th=%g: leaves gave %d patterns %+v, items %d %+v", len(items), len(leaves), cfg.Threshold, len(got), gotSt, len(want), wantSt)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Flow != w.Flow || g.NF != w.NF || g.Leaves != w.Leaves || math.Float64bits(g.Weight) != math.Float64bits(w.Weight) {
			t.Fatalf("%d items th=%g: pattern %d from leaves is %v (%d leaves, %x), from items %v (%d leaves, %x)", len(items), cfg.Threshold,
				i, g, g.Leaves, math.Float64bits(g.Weight), w, w.Leaves, math.Float64bits(w.Weight))
		}
	}
}

// TestLeavesMatchItems holds the leaves entry point to the items one on
// reuseCases (empty NF names and kinds, integer weights that tie, repeated
// leaves, an all-zero case), on weights whose sum in leaf order differs
// from their sum in item order, and on cells that weigh exactly the
// threshold, with one Scratch reused throughout.
func TestLeavesMatchItems(t *testing.T) {
	var s Scratch
	for _, c := range reuseCases() {
		diffLeavesAgainstItems(t, &s, c.items, c.cfg)
	}
	// Repeats of one leaf interleaved with others, in weights that round:
	// the leaf's sum and the total depend on the order of the additions.
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 40; c++ {
		items, cfg := genCase(int64(200+c), c%10 == 9)
		for i := range items {
			if rng.Intn(3) == 0 {
				items[i] = items[rng.Intn(i+1)]
			}
			items[i].Weight = 0.1 + rng.Float64()/3
		}
		diffLeavesAgainstItems(t, &s, items, cfg)
	}
	// Ties: twenty items of weight 1 at threshold 0.25 make minW exactly
	// 5, and the /24s of five items each weigh exactly that.
	var items []Item
	for i := 0; i < 20; i++ {
		items = append(items, Item{Flow: ft(byte(i), uint16(3000+i), 80), NF: "fw1", Kind: "fw", Weight: 1})
		items[i].Flow.SrcIP = uint32(i/5)<<24 | uint32(i)
	}
	diffLeavesAgainstItems(t, &s, items, Config{Threshold: 0.25})
}

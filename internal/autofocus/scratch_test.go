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

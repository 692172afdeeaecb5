// Package autofocus implements the multidimensional hierarchical
// heavy-hitter clustering Microscope's pattern aggregation builds on
// (AutoFocus, Estan et al. [25]; paper §4.4).
//
// Items are weighted <five-tuple, NF> pairs. The algorithm reports the most
// specific aggregates — across source/destination prefix hierarchies, port
// ranges, protocol, and NF instance/type — whose residual weight (after
// consuming the weight already explained by more-specific reported
// aggregates) exceeds a threshold fraction of the total. Like the paper's
// implementation, port generalization uses single ports or the static
// registered/ephemeral ranges, and prefixes step through a fixed ladder;
// the paper notes the same limitation when discussing Figure 14.
package autofocus

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"

	"microscope/internal/packet"
)

// Item is one weighted observation.
type Item struct {
	Flow packet.FiveTuple
	// NF is the component instance ("fw2", "source").
	NF string
	// Kind is the component type ("fw"), enabling instance→type rollup.
	// An empty NF or Kind has no level of its own in the NF hierarchy:
	// the item joins the next more general level only.
	Kind string
	// Weight is finite and non-negative.
	Weight float64
}

// PortRange is an inclusive port interval. Lo==0 && Hi==65535 means any.
type PortRange struct {
	Lo, Hi uint16
}

// Contains reports whether p falls inside the range.
func (r PortRange) Contains(p uint16) bool { return p >= r.Lo && p <= r.Hi }

// Any reports whether the range covers all ports.
func (r PortRange) Any() bool { return r.Lo == 0 && r.Hi == 65535 }

// String renders the range as the paper's listings do.
func (r PortRange) String() string {
	if r.Any() {
		return "*"
	}
	if r.Lo == r.Hi {
		return fmt.Sprintf("%d", r.Lo)
	}
	return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
}

// FlowAgg is a flow aggregate: prefixes, port ranges, and a protocol set
// (single protocol or any).
type FlowAgg struct {
	SrcPrefix uint32
	SrcLen    uint8
	DstPrefix uint32
	DstLen    uint8
	SrcPort   PortRange
	DstPort   PortRange
	Proto     int16 // -1 = any
}

// Matches reports whether a concrete tuple falls inside the aggregate.
func (a FlowAgg) Matches(ft packet.FiveTuple) bool {
	if a.SrcLen > 0 && ft.SrcIP>>(32-a.SrcLen) != a.SrcPrefix>>(32-a.SrcLen) {
		return false
	}
	if a.DstLen > 0 && ft.DstIP>>(32-a.DstLen) != a.DstPrefix>>(32-a.DstLen) {
		return false
	}
	if !a.SrcPort.Contains(ft.SrcPort) || !a.DstPort.Contains(ft.DstPort) {
		return false
	}
	if a.Proto >= 0 && uint8(a.Proto) != ft.Proto {
		return false
	}
	return true
}

// String renders "srcPrefix dstPrefix proto sport dport" like Figure 14.
func (a FlowAgg) String() string {
	return fmt.Sprintf("%s %s %s %s %s",
		prefixString(a.SrcPrefix, a.SrcLen), prefixString(a.DstPrefix, a.DstLen),
		protoString(a.Proto), a.SrcPort, a.DstPort)
}

func prefixString(p uint32, l uint8) string {
	if l == 0 {
		return "*"
	}
	return fmt.Sprintf("%s/%d", packet.IPString(maskPrefix(p, l)), l)
}

func protoString(p int16) string {
	if p < 0 {
		return "*"
	}
	return fmt.Sprintf("%d", p)
}

func maskPrefix(ip uint32, l uint8) uint32 {
	if l == 0 {
		return 0
	}
	return ip &^ (1<<(32-uint32(l)) - 1)
}

// NFAgg is an NF aggregate: a specific instance, all instances of a type,
// or any component.
type NFAgg struct {
	Name string // instance, "" when aggregated
	Kind string // type, "" when fully general
}

// Any reports whether the aggregate covers every component.
func (a NFAgg) Any() bool { return a.Name == "" && a.Kind == "" }

// String implements fmt.Stringer.
func (a NFAgg) String() string {
	switch {
	case a.Name != "":
		return a.Name
	case a.Kind != "":
		return a.Kind + "*"
	default:
		return "*"
	}
}

// Pattern is one reported aggregate.
type Pattern struct {
	Flow FlowAgg
	NF   NFAgg
	// Weight is the residual weight this pattern explains (not counting
	// weight already attributed to more specific reported patterns).
	Weight float64
	// Leaves is how many distinct exact items contributed.
	Leaves int
}

// String implements fmt.Stringer.
func (p Pattern) String() string {
	return fmt.Sprintf("%s %s: %.1f", p.Flow, p.NF, p.Weight)
}

// Config tunes aggregation.
type Config struct {
	// Threshold is the fraction of total weight an aggregate must
	// explain to be reported (the paper's th, default 0.01).
	Threshold float64
	// MaxPatterns caps the report size (0 = unlimited).
	MaxPatterns int
}

func (c *Config) setDefaults() {
	if c.Threshold == 0 {
		c.Threshold = 0.01
	}
}

// Stats counts the work of one Aggregate call. Both counts depend on the
// input alone, so they repeat exactly across runs, hosts and worker counts.
type Stats struct {
	// Leaves is the number of distinct <flow, NF> items.
	Leaves int
	// Cells is the number of leaf-to-lattice-cell projections computed.
	// Expanding every leaf's whole lattice would make it 1350 per leaf.
	Cells int
}

// The lattice has six dimensions, each a generalization ladder from most to
// least specific. A lattice node picks one rung per dimension; its generality
// is the sum of the rung indexes.
const (
	dimSrc, dimDst     = 0, 1 // prefix lengths 32, 24, 16, 8, 0
	dimSport, dimDport = 2, 3 // exact, its side of the registered/ephemeral split, any
	dimProto           = 4    // exact, any
	dimNF              = 5    // instance, type, any
	dims               = 6
	maxRungs           = 5
)

var prefixLens = [maxRungs]uint8{32, 24, 16, 8, 0}
var rungs = [dims]int{len(prefixLens), len(prefixLens), 3, 3, 2, 3}

// portRangesFor returns the generalization ladder of a concrete port.
func portRangesFor(p uint16) [3]PortRange {
	static := PortRange{1024, 65535}
	if p < 1024 {
		static = PortRange{0, 1023}
	}
	return [3]PortRange{{p, p}, static, {0, 65535}}
}

// node is one lattice node: a rung per dimension.
type node [dims]uint8

// nodesByLevel[g] lists the lattice nodes of generality g.
var nodesByLevel = func() (by [][]node) {
	var walk func(nd node, d, g int)
	walk = func(nd node, d, g int) {
		if d == dims {
			for len(by) <= g {
				by = append(by, nil)
			}
			by[g] = append(by[g], nd)
			return
		}
		for r := 0; r < rungs[d]; r++ {
			nd[d] = uint8(r)
			walk(nd, d+1, g+r)
		}
	}
	walk(node{}, 0, 0)
	return by
}()

// nodeSet is a set of nodes of one level, by index: a level has at most
// 256 nodes (the widest has 203).
type nodeSet [4]uint64

// joinable[g][d][r] is the set of level-g nodes whose rung on dimension d
// is at least r: ANDed over a leaf's floors, the nodes it can join.
var joinable = func() [][dims][maxRungs]nodeSet {
	by := make([][dims][maxRungs]nodeSet, len(nodesByLevel))
	for g, nodes := range nodesByLevel {
		if len(nodes) > len(nodeSet{})*64 {
			panic("autofocus: a lattice level outgrows nodeSet")
		}
		for ni, nd := range nodes {
			for d, rung := range nd {
				for r := 0; r <= int(rung); r++ {
					by[g][d][r][ni/64] |= 1 << (ni % 64)
				}
			}
		}
	}
	return by
}()

// noLevel marks an NF rung a leaf has no cell on (empty NF or Kind).
const noLevel = ^uint32(0)

// leaf is one distinct item of a search. at[d][r] is its projection on rung
// r of dimension d as an integer: the masked prefix, the port range's Lo,
// the protocol, the per-call id of the NF instance or type; 0 on every
// "any" rung.
type leaf struct {
	weight float64
	at     [dims][maxRungs]uint32
	// agg[d][r] is the id of the leaf's one-dimensional aggregate on rung r
	// of dimension d (that rung's projection, every other dimension "any")
	// for the rungs below the last, which every leaf shares; -1 on an NF
	// rung the leaf has no level on. Set when the search first needs floors.
	agg [dims][maxRungs - 1]int32
	// floor[d] is the first rung of d on which the leaf can still be part
	// of a cell that reaches the threshold (see setFloors).
	floor node
}

// cellKey identifies a lattice cell within one generality level: the node's
// index in the level and the projection on it. Fixed-size integers only.
type cellKey struct {
	at   [dims]uint32
	node uint32
}

// hashMul is the odd multiplier of the tables' hashes: the top bits of a
// product depend on every bit of the multiplicand, and idTable probes from
// the top bits.
const hashMul = 0x9e3779b97f4a7c15

func (k *cellKey) hash(seed uint64) uint64 {
	h := seed ^ uint64(k.node)
	for _, v := range k.at {
		h = (h ^ uint64(v)) * hashMul
	}
	return h
}

// cell is one lattice cell of the level being searched; its members are the
// chain of links from head, in leaf order. Its key is s.index's key of the
// same id.
type cell struct {
	weight     float64
	head, tail int32
}

// link is one leaf's membership of one cell.
type link struct{ leaf, next int32 }

// heavyCell is a cell that reached the threshold at the start of its level.
type heavyCell struct {
	key  aggKey
	head int32
}

type aggKey struct {
	flow FlowAgg
	nf   NFAgg
}

// leafKey is what makes two items the same leaf.
type leafKey struct {
	flow packet.FiveTuple
	nf   string
}

// idTable numbers distinct keys 0, 1, 2, … in the order they are first
// seen: open addressing over a power-of-two slot array that reset sizes for
// the search at hand and that doubles when its keys outrun it. Clearing it
// costs the size the search asked for, where clearing a Go map costs the
// most the map ever held. The numbering never depends on the hashes.
type idTable[K comparable] struct {
	slots  []int32  // id+1 of the key that probed to this slot, 0 when empty
	keys   []K      // by id
	hashes []uint64 // by id
	shift  uint     // 64 - log2(len(slots)): a hash's top bits pick its first slot
}

// reset empties the table, sized for about n keys.
func (t *idTable[K]) reset(n int) {
	t.keys, t.hashes = slices.Grow(t.keys[:0], n), slices.Grow(t.hashes[:0], n)
	size := 16
	for size < 2*n {
		size *= 2
	}
	t.resize(size)
}

// resize makes the slot array size long, a power of two, and puts every
// key back in it.
func (t *idTable[K]) resize(size int) {
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for id, h := range t.hashes {
		i := h >> t.shift
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id + 1)
	}
}

// id returns the id of k, whose hash is h, numbering k if it is new.
func (t *idTable[K]) id(k K, h uint64) (id int32, seen bool) {
	mask := uint64(len(t.slots) - 1)
	i := h >> t.shift
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if id := t.slots[i] - 1; t.hashes[id] == h && t.keys[id] == k {
			return id, true
		}
	}
	id = int32(len(t.keys))
	t.slots[i] = id + 1
	t.keys, t.hashes = append(t.keys, k), append(t.hashes, h)
	if 2*len(t.keys) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	return id, false
}

// Scratch is the reusable working memory of a search: the map
// AggregateStats groups items with, the NF ids, the leaves, the tables of
// one-dimensional aggregates and of cells, and the slices of the level
// search. A worker that runs many small searches keeps one; nothing is
// remade, and a reset costs what the search at hand uses, so a warm search
// allocates only the patterns it returns. The zero value is ready; a
// Scratch must not be used by two searches at once.
type Scratch struct {
	leafIdx map[leafKey]int32
	items   []Item // AggregateStats' leaves
	nfIDs   map[NFAgg]uint32
	nfByID  []NFAgg
	leaves  []leaf
	// aggs numbers the one-dimensional aggregates of the live leaves;
	// parents and sums are by aggregate id: the aggregate on the next rung
	// up (-1 for none) and the live weight.
	aggs    idTable[uint64]
	parents []int32
	sums    []float64
	summed  bool // sums hold the live weight: a consumed leaf is subtracted
	live    []int32
	index   idTable[cellKey]
	cells   []cell
	links   []link
	heavy   []heavyCell
	out     []Pattern
	// seed varies the tables' hashes from one Scratch to the next, so no
	// input is slow on every run.
	seed uint64
}

// Aggregate runs the hierarchical heavy-hitter search and returns patterns
// sorted by descending residual weight (most significant first), most
// specific first among equals.
func Aggregate(items []Item, cfg Config) []Pattern {
	var s Scratch
	out, _ := s.AggregateStats(items, cfg)
	return out
}

// AggregateStats is Aggregate that also reports how much of the lattice the
// search touched, in s's working memory. It groups the items into leaves,
// one per distinct <flow, NF> in first-seen order with the first item's
// Kind, each weighing its items summed in item order, and searches them
// with AggregateLeaves.
func (s *Scratch) AggregateStats(items []Item, cfg Config) ([]Pattern, Stats) {
	if s.leafIdx == nil {
		s.leafIdx = make(map[leafKey]int32)
	}
	leaves := s.items[:0]
	var total float64
	for _, it := range items {
		total += it.Weight
		k := leafKey{it.Flow, it.NF}
		if i, ok := s.leafIdx[k]; ok {
			leaves[i].Weight += it.Weight
			continue
		}
		s.leafIdx[k] = int32(len(leaves))
		leaves = append(leaves, it)
	}
	for i := range leaves { // empty the map at the cost of what it held
		delete(s.leafIdx, leafKey{leaves[i].Flow, leaves[i].NF})
	}
	s.items = leaves
	return s.AggregateLeaves(leaves, total, cfg)
}

// AggregateLeaves is AggregateStats over items that are already leaves: no
// two share a <Flow, NF>. total is the weight the threshold is a fraction
// of: the sum of the items the leaves were grouped from, which in floating
// point need not equal the sum of the leaves.
//
// The search walks generality levels in order over the leaves no reported
// pattern has consumed yet. It is the exhaustive search (expand every leaf's
// lattice, sort all cells by generality, visit each once) with the work that
// cannot change the answer left out: a cell's residual counts unconsumed
// members only and only shrinks, so a cell below the threshold at the start
// of its level is never reported; a consumed member adds an exact 0.0; and
// once the unconsumed weight is below the threshold no cell at any level can
// reach it.
func (s *Scratch) AggregateLeaves(items []Item, total float64, cfg Config) ([]Pattern, Stats) {
	cfg.setDefaults()
	if s.seed == 0 {
		s.seed = maphash.Bytes(maphash.MakeSeed(), nil) | 1
	}
	s.load(items)
	leaves := s.leaves
	st := Stats{Leaves: len(leaves)}
	if total <= 0 {
		return nil, st
	}
	minW := cfg.Threshold * total
	s.summed = false

	// live lists the unconsumed leaves in leaf order. Consuming a leaf
	// zeroes its weight: it adds 0.0 to every sum from then on and no
	// longer counts as contributing, as a leaf without weight never does.
	live := s.live[:0]
	for li := range leaves {
		live = append(live, int32(li))
	}
	out := s.out[:0]
	cells := s.cells[:0]
	stale := true // live has leaves to drop, floors are out of date
	for level, nodes := range nodesByLevel {
		if stale {
			kept, liveW := live[:0], 0.0
			for _, li := range live {
				if w := leaves[li].weight; w > 0 {
					kept, liveW = append(kept, li), liveW+w
				}
			}
			if live = kept; !(liveW >= minW) {
				break // no cell of this or any later level can reach minW
			}
			if level > 0 { // level 0 is one node: nothing to prune
				s.setFloors(live, minW, total)
				stale = false
			}
		}

		// Project each live leaf onto the nodes of the level it can
		// join, leaf by leaf, so every cell sums its live weight and
		// chains its members in leaf order. The last level's cell count
		// sizes the index.
		s.index.reset(max(len(live), len(cells)))
		cells = cells[:0]
		links := s.links[:0]
		sets := &joinable[level]
		for _, li := range live {
			lf := &leaves[li]
			set := sets[0][lf.floor[0]]
			for d := 1; d < dims; d++ {
				for w, word := range sets[d][lf.floor[d]] {
					set[w] &= word
				}
			}
			for w, word := range set {
				for ; word != 0; word &= word - 1 {
					ni := w*64 + bits.TrailingZeros64(word)
					k := cellKey{node: uint32(ni)}
					for d, r := range nodes[ni] {
						k.at[d] = lf.at[d][r]
					}
					if k.at[dimNF] == noLevel {
						continue
					}
					ci, seen := s.index.id(k, k.hash(s.seed))
					if !seen {
						cells = append(cells, cell{head: -1, tail: -1})
					}
					c := &cells[ci]
					c.weight += lf.weight
					if c.tail < 0 {
						c.head = int32(len(links))
					} else {
						links[c.tail].next = int32(len(links))
					}
					c.tail = int32(len(links))
					links = append(links, link{leaf: li, next: -1})
				}
			}
		}
		s.links = links
		st.Cells += len(links)

		// Only cells that reach minW now can be reported; visit them in
		// the canonical aggregate order.
		heavy := s.heavy[:0]
		for ci := range cells {
			if c := &cells[ci]; c.weight >= minW {
				k := &s.index.keys[ci]
				heavy = append(heavy, heavyCell{key: aggKeyOf(k, nodes[k.node], s.nfByID), head: c.head})
			}
		}
		slices.SortFunc(heavy, func(a, b heavyCell) int { return aggKeyCmp(&a.key, &b.key) })
		s.heavy = heavy

		// Greedy residual reporting: a cell is reported when its
		// unconsumed member weight crosses the threshold; reporting
		// consumes that weight so later cells only count what remains.
		for _, h := range heavy {
			var residual float64
			contributing := 0
			for e := h.head; e >= 0; e = links[e].next {
				if w := leaves[links[e].leaf].weight; w > 0 {
					residual += w
					contributing++
				}
			}
			if residual < minW {
				continue
			}
			for e := h.head; e >= 0; e = links[e].next {
				s.consume(&leaves[links[e].leaf])
			}
			out = append(out, Pattern{Flow: h.key.flow, NF: h.key.nf, Weight: residual, Leaves: contributing})
			stale = true
		}
	}
	s.live, s.out, s.cells = live, out, cells

	// Total order: weight desc, then the canonical aggregate-key order, so
	// the ranking never depends on the level traversal above.
	slices.SortStableFunc(out, func(a, b Pattern) int {
		if a.Weight != b.Weight {
			if a.Weight > b.Weight {
				return -1
			}
			return 1
		}
		return aggKeyCmp(&aggKey{flow: a.Flow, nf: a.NF}, &aggKey{flow: b.Flow, nf: b.NF})
	})
	if cfg.MaxPatterns > 0 && len(out) > cfg.MaxPatterns {
		out = out[:cfg.MaxPatterns]
	}
	if len(out) == 0 {
		return nil, st
	}
	return slices.Clone(out), st
}

// load turns the items into s.leaves. NF instances and types get per-call
// ids (0 is "any"); consecutive items of one NF share one lookup.
func (s *Scratch) load(items []Item) {
	if s.nfIDs == nil {
		s.nfIDs = make(map[NFAgg]uint32)
	}
	clear(s.nfIDs)
	s.nfByID = append(s.nfByID[:0], NFAgg{})
	nfID := func(a NFAgg) uint32 {
		if a.Name == "" && a.Kind == "" {
			return noLevel
		}
		id, ok := s.nfIDs[a]
		if !ok {
			id = uint32(len(s.nfByID))
			s.nfIDs[a], s.nfByID = id, append(s.nfByID, a)
		}
		return id
	}
	leaves := slices.Grow(s.leaves[:0], len(items))
	var nf NFAgg
	var nfAt [2]uint32
	for i := range items {
		it := &items[i]
		leaves = append(leaves, leaf{weight: it.Weight})
		lf := &leaves[len(leaves)-1]
		for r, l := range prefixLens {
			lf.at[dimSrc][r], lf.at[dimDst][r] = maskPrefix(it.Flow.SrcIP, l), maskPrefix(it.Flow.DstIP, l)
		}
		sp, dp := portRangesFor(it.Flow.SrcPort), portRangesFor(it.Flow.DstPort)
		for r := range sp {
			lf.at[dimSport][r], lf.at[dimDport][r] = uint32(sp[r].Lo), uint32(dp[r].Lo)
		}
		lf.at[dimProto][0] = uint32(it.Flow.Proto)
		if i == 0 || it.NF != nf.Name || it.Kind != nf.Kind {
			// An empty name or kind has no rung of its own: its cell
			// would be the next rung's.
			nf, nfAt = NFAgg{Name: it.NF, Kind: it.Kind}, [2]uint32{noLevel, nfID(NFAgg{Kind: it.Kind})}
			if it.NF != "" {
				nfAt[0] = nfID(nf)
			}
		}
		lf.at[dimNF][0], lf.at[dimNF][1] = nfAt[0], nfAt[1]
	}
	s.leaves = leaves
}

// setFloors raises, for every live leaf and dimension, the floor to the
// first rung on which the leaf's one-dimensional aggregate reaches minW over
// the live leaves. A cell on a lower rung of that dimension is a subset of
// an aggregate below minW, and sums of non-negative weights in leaf order
// never exceed the same sum over a superset, so the leaf can be left out of
// such cells without changing which cells reach minW.
//
// The aggregates are numbered and summed once per search, the first time
// floors are needed; from then on consume subtracts each leaf a reported
// pattern takes, so a sum is no longer the one re-summing the live leaves
// would give, only within a few rounding errors of it. The comparison
// allows for that: each of the at most 3·n additions and subtractions over
// n leaves errs by at most 2⁻⁵³ of total, so an aggregate counts as below
// minW only when its sum is below by more than n·2⁻⁵¹·total. A floor can
// come out lower than the re-summed one, never higher; lower only prunes
// less, and floors never fall, so the walk resumes at the last one.
func (s *Scratch) setFloors(live []int32, minW, total float64) {
	if !s.summed {
		s.sumAggs(live)
	}
	slack := float64(len(s.leaves)) * 0x1p-51 * total
	for _, li := range live {
		lf := &s.leaves[li]
		for d := range lf.agg {
			r := int(lf.floor[d])
			for ; r < rungs[d]-1; r++ {
				if id := lf.agg[d][r]; id >= 0 && s.sums[id]+slack >= minW {
					break
				}
			}
			lf.floor[d] = uint8(r)
		}
	}
}

// sumAggs numbers the live leaves' one-dimensional aggregates and sums
// their weight in leaf order. Only a leaf's lowest rung is looked up: an
// aggregate seen before knows its ancestors, and a new one looks up the
// next rung, so each aggregate is hashed once per leaf that creates it.
func (s *Scratch) sumAggs(live []int32) {
	n := 4 * len(live) // up to 15 per leaf; 3 to 5 in practice
	s.aggs.reset(n)
	s.parents, s.sums = slices.Grow(s.parents[:0], n), slices.Grow(s.sums[:0], n)
	for _, li := range live {
		lf := &s.leaves[li]
		for d := range lf.agg {
			child := int32(-1) // a new aggregate on the rung below
			for r := 0; r < rungs[d]-1; r++ {
				v := lf.at[d][r]
				if d == dimNF && v == noLevel {
					lf.agg[d][r], child = -1, -1
					continue
				}
				k := uint64(d*maxRungs+r)<<32 | uint64(v)
				id, seen := s.aggs.id(k, (k^s.seed)*hashMul)
				if !seen {
					s.parents, s.sums = append(s.parents, -1), append(s.sums, 0)
				}
				if child >= 0 {
					s.parents[child] = id
				}
				lf.agg[d][r] = id
				if seen {
					for r++; r < rungs[d]-1; r++ {
						if id >= 0 {
							id = s.parents[id]
						}
						lf.agg[d][r] = id
					}
					break
				}
				child = id
			}
			for _, id := range lf.agg[d][:rungs[d]-1] {
				if id >= 0 {
					s.sums[id] += lf.weight
				}
			}
		}
	}
	s.summed = true
}

// consume takes a leaf's weight out of the search: out of its aggregates'
// sums, once they exist, and out of every cell from now on.
func (s *Scratch) consume(lf *leaf) {
	if lf.weight == 0 {
		return
	}
	if s.summed {
		for d := range lf.agg {
			for _, id := range lf.agg[d][:rungs[d]-1] {
				if id >= 0 {
					s.sums[id] -= lf.weight
				}
			}
		}
	}
	lf.weight = 0
}

// aggKeyOf rebuilds the aggregate a cell key stands for at node nd.
func aggKeyOf(k *cellKey, nd node, nfByID []NFAgg) aggKey {
	proto := int16(-1)
	if nd[dimProto] == 0 {
		proto = int16(k.at[dimProto])
	}
	return aggKey{
		flow: FlowAgg{
			SrcPrefix: k.at[dimSrc], SrcLen: prefixLens[nd[dimSrc]],
			DstPrefix: k.at[dimDst], DstLen: prefixLens[nd[dimDst]],
			SrcPort: portRangesFor(uint16(k.at[dimSport]))[nd[dimSport]],
			DstPort: portRangesFor(uint16(k.at[dimDport]))[nd[dimDport]],
			Proto:   proto,
		},
		nf: nfByID[k.at[dimNF]],
	}
}

// aggKeyCmp is the canonical aggregate order: by source prefix then the
// longer prefix, the same for the destination, port ranges by (Lo, Hi),
// protocol, then NF name and kind. Distinct aggregates never compare equal.
func aggKeyCmp(a, b *aggKey) int {
	af, bf := &a.flow, &b.flow
	switch {
	case af.SrcPrefix != bf.SrcPrefix:
		return cmp.Compare(af.SrcPrefix, bf.SrcPrefix)
	case af.SrcLen != bf.SrcLen:
		return cmp.Compare(bf.SrcLen, af.SrcLen)
	case af.DstPrefix != bf.DstPrefix:
		return cmp.Compare(af.DstPrefix, bf.DstPrefix)
	case af.DstLen != bf.DstLen:
		return cmp.Compare(bf.DstLen, af.DstLen)
	case af.SrcPort != bf.SrcPort:
		return portCmp(af.SrcPort, bf.SrcPort)
	case af.DstPort != bf.DstPort:
		return portCmp(af.DstPort, bf.DstPort)
	case af.Proto != bf.Proto:
		return cmp.Compare(af.Proto, bf.Proto)
	case a.nf.Name != b.nf.Name:
		return strings.Compare(a.nf.Name, b.nf.Name)
	default:
		return strings.Compare(a.nf.Kind, b.nf.Kind)
	}
}

func portCmp(a, b PortRange) int {
	if a.Lo != b.Lo {
		return cmp.Compare(a.Lo, b.Lo)
	}
	return cmp.Compare(a.Hi, b.Hi)
}

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

// leaf is a grouped exact item. at[d][r] is its projection on rung r of
// dimension d as an integer: the masked prefix, the port range's Lo, the
// protocol, the per-call id of the NF instance or type; 0 on every "any"
// rung.
type leaf struct {
	weight float64
	at     [dims][maxRungs]uint32
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

// cell is one lattice cell of the level being searched; its members are the
// chain of links from head, in leaf order.
type cell struct {
	key        cellKey
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

// Scratch is the reusable working memory of AggregateStats: the maps it
// groups leaves, interns NFs, sums one-dimensional aggregates and indexes
// cells with, and the slices of the level search. A worker that runs many
// small searches keeps one; its maps are cleared, not remade, so a warm
// search allocates only the patterns it returns. The zero value is ready;
// a Scratch must not be used by two searches at once.
type Scratch struct {
	leafIdx map[leafKey]int32
	leaves  []leaf
	nfIDs   map[NFAgg]uint32
	nfByID  []NFAgg
	sums    map[uint64]float64
	live    []int32
	index   map[cellKey]int32
	cells   []cell
	links   []link
	heavy   []heavyCell
	out     []Pattern
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
// search touched, in s's working memory.
//
// The search walks generality levels in order over the leaves no reported
// pattern has consumed yet. It is the exhaustive search (expand every leaf's
// lattice, sort all cells by generality, visit each once) with the work that
// cannot change the answer left out: a cell's residual counts unconsumed
// members only and only shrinks, so a cell below the threshold at the start
// of its level is never reported; a consumed member adds an exact 0.0; and
// once the unconsumed weight is below the threshold no cell at any level can
// reach it.
func (s *Scratch) AggregateStats(items []Item, cfg Config) ([]Pattern, Stats) {
	cfg.setDefaults()
	total := s.group(items)
	leaves := s.leaves
	st := Stats{Leaves: len(leaves)}
	if total <= 0 {
		return nil, st
	}
	minW := cfg.Threshold * total

	// live lists the unconsumed leaves in leaf order. Consuming a leaf
	// zeroes its weight: it adds 0.0 to every sum from then on and no
	// longer counts as contributing, as a leaf without weight never does.
	live := s.live[:0]
	for li := range leaves {
		live = append(live, int32(li))
	}
	out := s.out[:0]
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
				s.setFloors(live, minW)
				stale = false
			}
		}

		// Project each live leaf onto the nodes of the level it can
		// join, leaf by leaf, so every cell sums its live weight and
		// chains its members in leaf order.
		clear(s.index)
		cells, links := s.cells[:0], s.links[:0]
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
					ci, ok := s.index[k]
					if !ok {
						ci = int32(len(cells))
						s.index[k] = ci
						cells = append(cells, cell{key: k, head: -1, tail: -1})
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
		s.cells, s.links = cells, links
		st.Cells += len(links)

		// Only cells that reach minW now can be reported; visit them in
		// the canonical aggregate order.
		heavy := s.heavy[:0]
		for ci := range cells {
			if c := &cells[ci]; c.weight >= minW {
				heavy = append(heavy, heavyCell{key: aggKeyOf(&c.key, nodes[c.key.node], s.nfByID), head: c.head})
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
				leaves[links[e].leaf].weight = 0
			}
			out = append(out, Pattern{Flow: h.key.flow, NF: h.key.nf, Weight: residual, Leaves: contributing})
			stale = true
		}
	}
	s.live, s.out = live, out

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

// group turns the items into s.leaves, one per distinct <flow, NF>, and
// returns their total weight. NF instances and types get per-call ids
// (0 is "any").
func (s *Scratch) group(items []Item) float64 {
	if s.leafIdx == nil {
		s.leafIdx, s.nfIDs = make(map[leafKey]int32), make(map[NFAgg]uint32)
		s.sums, s.index = make(map[uint64]float64), make(map[cellKey]int32)
	}
	clear(s.leafIdx)
	clear(s.nfIDs)
	s.leaves = s.leaves[:0]
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
	var total float64
	for _, it := range items {
		total += it.Weight
		k := leafKey{it.Flow, it.NF}
		if i, ok := s.leafIdx[k]; ok {
			s.leaves[i].weight += it.Weight
			continue
		}
		s.leafIdx[k] = int32(len(s.leaves))
		lf := leaf{weight: it.Weight}
		for r, l := range prefixLens {
			lf.at[dimSrc][r], lf.at[dimDst][r] = maskPrefix(it.Flow.SrcIP, l), maskPrefix(it.Flow.DstIP, l)
		}
		sp, dp := portRangesFor(it.Flow.SrcPort), portRangesFor(it.Flow.DstPort)
		for r := range sp {
			lf.at[dimSport][r], lf.at[dimDport][r] = uint32(sp[r].Lo), uint32(dp[r].Lo)
		}
		lf.at[dimProto][0] = uint32(it.Flow.Proto)
		// An empty name or kind has no rung of its own: its cell
		// would be the next rung's.
		lf.at[dimNF][0], lf.at[dimNF][1] = noLevel, nfID(NFAgg{Kind: it.Kind})
		if it.NF != "" {
			lf.at[dimNF][0] = nfID(NFAgg{Name: it.NF, Kind: it.Kind})
		}
		s.leaves = append(s.leaves, lf)
	}
	return total
}

// setFloors sets, for every live leaf and dimension, the first rung on which
// the leaf's one-dimensional aggregate (that rung's projection, every other
// dimension "any") reaches minW over the live leaves. A cell on a lower rung
// of that dimension is a subset of an aggregate below minW, and sums of
// non-negative weights in leaf order never exceed the same sum over a
// superset, so the leaf can be left out of such cells without changing which
// cells reach minW.
func (s *Scratch) setFloors(live []int32, minW float64) {
	key := func(d, r int, v uint32) uint64 { return uint64(d*maxRungs+r)<<32 | uint64(v) }
	clear(s.sums)
	for _, li := range live {
		lf := &s.leaves[li]
		for d := range lf.at {
			for r := 0; r < rungs[d]-1; r++ { // the last rung is every live leaf
				s.sums[key(d, r, lf.at[d][r])] += lf.weight
			}
		}
	}
	for _, li := range live {
		lf := &s.leaves[li]
		for d := range lf.at {
			r := 0
			for r < rungs[d]-1 && !(s.sums[key(d, r, lf.at[d][r])] >= minW) {
				r++
			}
			lf.floor[d] = uint8(r)
		}
	}
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

package autofocus

import (
	"flag"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"microscope/internal/packet"
)

func ft(srcLast byte, sport, dport uint16) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.IPFromOctets(100, 0, 0, srcLast),
		DstIP:   packet.IPFromOctets(32, 0, 0, 1),
		SrcPort: sport,
		DstPort: dport,
		Proto:   packet.ProtoTCP,
	}
}

func TestPortRange(t *testing.T) {
	r := PortRange{1024, 65535}
	if !r.Contains(2000) || r.Contains(80) {
		t.Error("Contains wrong")
	}
	if r.Any() {
		t.Error("registered range is not any")
	}
	if (PortRange{0, 65535}).String() != "*" {
		t.Error("any string")
	}
	if (PortRange{80, 80}).String() != "80" {
		t.Error("single string")
	}
	if r.String() != "1024-65535" {
		t.Error("range string")
	}
}

func TestFlowAggMatches(t *testing.T) {
	a := FlowAgg{
		SrcPrefix: packet.IPFromOctets(100, 0, 0, 0),
		SrcLen:    24,
		SrcPort:   PortRange{0, 65535},
		DstPort:   PortRange{6000, 6008},
		Proto:     -1,
	}
	if !a.Matches(ft(9, 2000, 6004)) {
		t.Error("should match")
	}
	if a.Matches(ft(9, 2000, 7000)) {
		t.Error("port outside range matched")
	}
	other := ft(9, 2000, 6004)
	other.SrcIP = packet.IPFromOctets(101, 0, 0, 9)
	if a.Matches(other) {
		t.Error("prefix mismatch matched")
	}
}

func TestFlowAggString(t *testing.T) {
	a := FlowAgg{
		SrcPrefix: packet.IPFromOctets(100, 0, 0, 1),
		SrcLen:    32,
		DstLen:    0,
		SrcPort:   PortRange{2004, 2004},
		DstPort:   PortRange{1024, 65535},
		Proto:     6,
	}
	got := a.String()
	if !strings.Contains(got, "100.0.0.1/32") || !strings.Contains(got, "*") ||
		!strings.Contains(got, "2004") || !strings.Contains(got, "1024-65535") {
		t.Errorf("String: %q", got)
	}
}

func TestNFAgg(t *testing.T) {
	if (NFAgg{Name: "fw2", Kind: "fw"}).String() != "fw2" {
		t.Error("instance string")
	}
	if (NFAgg{Kind: "fw"}).String() != "fw*" {
		t.Error("kind string")
	}
	if !(NFAgg{}).Any() || (NFAgg{}).String() != "*" {
		t.Error("any agg")
	}
}

func TestAggregateSingleHeavyFlow(t *testing.T) {
	// One flow carries 90% of weight: it must be reported as an exact
	// (most specific) pattern.
	items := []Item{
		{Flow: ft(1, 2004, 6004), NF: "fw2", Kind: "fw", Weight: 90},
	}
	for i := 0; i < 10; i++ {
		items = append(items, Item{Flow: ft(byte(50+i), uint16(3000+i*13), uint16(9000+i*7)), NF: "fw1", Kind: "fw", Weight: 1})
	}
	pats := Aggregate(items, Config{Threshold: 0.05})
	if len(pats) == 0 {
		t.Fatal("no patterns")
	}
	top := pats[0]
	if top.Weight < 89.9 || top.Weight > 90.1 {
		t.Errorf("top weight: %v", top.Weight)
	}
	if top.Flow.SrcLen != 32 || top.Flow.SrcPort.Lo != 2004 || top.Flow.SrcPort.Hi != 2004 {
		t.Errorf("top pattern not exact: %v", top)
	}
	if top.NF.Name != "fw2" {
		t.Errorf("top NF: %v", top.NF)
	}
}

func TestAggregatePrefixRollup(t *testing.T) {
	// 64 flows inside 100.0.0.0/24, each 1% — individually below a 5%
	// threshold, together 64%: must roll up to (at most) the /24.
	var items []Item
	for i := 0; i < 64; i++ {
		items = append(items, Item{Flow: ft(byte(i), uint16(1024+i), uint16(7000+i)), NF: "fw1", Kind: "fw", Weight: 1})
	}
	// Background noise elsewhere.
	for i := 0; i < 36; i++ {
		f := ft(1, uint16(2000+i), uint16(8000+i))
		f.SrcIP = packet.IPFromOctets(9, byte(i), 0, 1)
		f.DstIP = packet.IPFromOctets(200, byte(i), 3, 4)
		items = append(items, Item{Flow: f, NF: "fw3", Kind: "fw", Weight: 1})
	}
	pats := Aggregate(items, Config{Threshold: 0.05})
	if len(pats) == 0 {
		t.Fatal("no patterns")
	}
	found := false
	for _, p := range pats {
		if p.Flow.SrcLen >= 16 && p.Flow.SrcLen <= 24 &&
			p.Flow.SrcPrefix>>8 == packet.IPFromOctets(100, 0, 0, 0)>>8 && p.Weight >= 60 {
			found = true
		}
	}
	if !found {
		t.Errorf("no /24-ish rollup found: %v", pats)
	}
}

func TestAggregateNFTypeRollup(t *testing.T) {
	// Same flow spread across five firewall instances, each below
	// threshold: must report at the fw-type level.
	var items []Item
	for i := 0; i < 5; i++ {
		items = append(items, Item{
			Flow: ft(7, 4000, 5000), NF: "fw" + string(rune('1'+i)), Kind: "fw", Weight: 3,
		})
	}
	items = append(items, Item{Flow: ft(200, 6000, 7000), NF: "nat1", Kind: "nat", Weight: 85})
	pats := Aggregate(items, Config{Threshold: 0.10})
	var fwPat *Pattern
	for i := range pats {
		if pats[i].NF.Kind == "fw" && pats[i].NF.Name == "" {
			fwPat = &pats[i]
		}
	}
	if fwPat == nil {
		t.Fatalf("no fw-type rollup: %v", pats)
	}
	if fwPat.Weight < 14.9 {
		t.Errorf("fw rollup weight: %v", fwPat.Weight)
	}
}

func TestAggregateThresholdPrunes(t *testing.T) {
	var items []Item
	for i := 0; i < 100; i++ {
		f := ft(byte(i), uint16(1024+i*17), uint16(1024+i*31))
		f.SrcIP = uint32(i) * 2654435761 // spread everywhere
		f.DstIP = uint32(i)*40503 + 7
		items = append(items, Item{Flow: f, NF: "fw1", Kind: "fw", Weight: 1})
	}
	pats := Aggregate(items, Config{Threshold: 0.5})
	// Nothing except (possibly) a very general cluster can pass 50%.
	for _, p := range pats {
		if p.Flow.SrcLen == 32 {
			t.Errorf("specific pattern above 50%%: %v", p)
		}
	}
}

func TestAggregateWeightConservation(t *testing.T) {
	f := func(weightsRaw []uint8) bool {
		if len(weightsRaw) == 0 || len(weightsRaw) > 40 {
			return true
		}
		var items []Item
		var total float64
		for i, w := range weightsRaw {
			wt := float64(w%50) + 1
			total += wt
			items = append(items, Item{
				Flow: ft(byte(i), uint16(2000+i), uint16(6000+i%4)), NF: "fw1", Kind: "fw", Weight: wt,
			})
		}
		pats := Aggregate(items, Config{Threshold: 0.01})
		var sum float64
		for _, p := range pats {
			if p.Weight <= 0 {
				return false
			}
			sum += p.Weight
		}
		// Residual reporting never double counts.
		return sum <= total+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAggregateEmptyAndCaps(t *testing.T) {
	if Aggregate(nil, Config{}) != nil {
		t.Error("empty input should be nil")
	}
	var items []Item
	for i := 0; i < 20; i++ {
		items = append(items, Item{Flow: ft(byte(i), uint16(3000+i), 6000), NF: "fw1", Kind: "fw", Weight: 10})
	}
	pats := Aggregate(items, Config{Threshold: 0.01, MaxPatterns: 3})
	if len(pats) > 3 {
		t.Errorf("cap ignored: %d", len(pats))
	}
}

func TestAggregateDeterminism(t *testing.T) {
	var items []Item
	for i := 0; i < 30; i++ {
		items = append(items, Item{Flow: ft(byte(i%5), uint16(2000+i%3), uint16(6000+i%2)), NF: "fw1", Kind: "fw", Weight: float64(i%7) + 1})
	}
	a := Aggregate(items, Config{Threshold: 0.02})
	b := Aggregate(items, Config{Threshold: 0.02})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pattern %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMaskPrefix(t *testing.T) {
	ip := packet.IPFromOctets(192, 168, 55, 77)
	if got := maskPrefix(ip, 24); got != packet.IPFromOctets(192, 168, 55, 0) {
		t.Errorf("/24 mask: %s", packet.IPString(got))
	}
	if got := maskPrefix(ip, 0); got != 0 {
		t.Errorf("/0 mask: %d", got)
	}
	if got := maskPrefix(ip, 32); got != ip {
		t.Errorf("/32 mask changed ip")
	}
}

// oracleAggregate is the exhaustive reference Aggregate is checked against:
// every leaf is expanded into its full 5x5x3x3x2x3 lattice, every cell keeps
// its member list, all cells are sorted by (generality, aggKeyLess) and
// visited once. Plain maps and slices, no shared state with Aggregate beyond
// the key order and the rule that an empty NF level is skipped.
func oracleAggregate(items []Item, cfg Config) []Pattern {
	cfg.setDefaults()
	type leafKey struct {
		flow packet.FiveTuple
		nf   string
	}
	type oleaf struct {
		flow             packet.FiveTuple
		nf, kind         string
		weight, consumed float64
	}
	type cell struct {
		key        aggKey
		generality int
		total      float64
		members    []int
	}
	leafIdx := map[leafKey]int{}
	var leaves []oleaf
	var total float64
	for _, it := range items {
		total += it.Weight
		k := leafKey{it.Flow, it.NF}
		if i, ok := leafIdx[k]; ok {
			leaves[i].weight += it.Weight
			continue
		}
		leafIdx[k] = len(leaves)
		leaves = append(leaves, oleaf{flow: it.Flow, nf: it.NF, kind: it.Kind, weight: it.Weight})
	}
	if total <= 0 {
		return nil
	}
	minW := cfg.Threshold * total

	index := map[aggKey]*cell{}
	var cells []*cell
	for li, lf := range leaves {
		srcPorts, dstPorts := portRangesFor(lf.flow.SrcPort), portRangesFor(lf.flow.DstPort)
		nfs := [...]NFAgg{{Name: lf.nf, Kind: lf.kind}, {Kind: lf.kind}, {}}
		protos := [...]int16{int16(lf.flow.Proto), -1}
		for si, sl := range prefixLens {
			for di, dl := range prefixLens {
				for spi, sp := range srcPorts {
					for dpi, dp := range dstPorts {
						for pi, pr := range protos {
							for ni, nf := range nfs {
								if (ni == 0 && lf.nf == "") || (ni == 1 && lf.kind == "") {
									continue // empty level: the same cell as the next one up
								}
								key := aggKey{
									flow: FlowAgg{
										SrcPrefix: maskPrefix(lf.flow.SrcIP, sl), SrcLen: sl,
										DstPrefix: maskPrefix(lf.flow.DstIP, dl), DstLen: dl,
										SrcPort: sp, DstPort: dp, Proto: pr,
									},
									nf: nf,
								}
								c := index[key]
								if c == nil {
									c = &cell{key: key, generality: si + di + spi + dpi + pi + ni}
									index[key] = c
									cells = append(cells, c)
								}
								c.members = append(c.members, li)
								c.total += lf.weight
							}
						}
					}
				}
			}
		}
	}
	kept := cells[:0]
	for _, c := range cells {
		if c.total >= minW {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].generality != kept[j].generality {
			return kept[i].generality < kept[j].generality
		}
		return aggKeyLess(kept[i].key, kept[j].key)
	})
	var out []Pattern
	for _, c := range kept {
		var residual float64
		for _, li := range c.members {
			residual += leaves[li].weight - leaves[li].consumed
		}
		if residual < minW {
			continue
		}
		contributing := 0
		for _, li := range c.members {
			if leaves[li].weight > leaves[li].consumed {
				contributing++
			}
			leaves[li].consumed = leaves[li].weight
		}
		out = append(out, Pattern{Flow: c.key.flow, NF: c.key.nf, Weight: residual, Leaves: contributing})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return aggKeyLess(aggKey{out[i].Flow, out[i].NF}, aggKey{out[j].Flow, out[j].NF})
	})
	if cfg.MaxPatterns > 0 && len(out) > cfg.MaxPatterns {
		out = out[:cfg.MaxPatterns]
	}
	return out
}

// genCase draws one differential case from seed: items over address, port
// and NF universes small enough that prefixes, port classes and NF types
// collide, and a threshold log-uniform in 0.001-0.5. Sizes are 1-60 items;
// big asks for 500-1000. Weights mix small integers (exact ties) with
// arbitrary floats (rounding-order sensitivity), and some items repeat a
// leaf so grouping is exercised.
func genCase(seed int64, big bool) ([]Item, Config) {
	rng := rand.New(rand.NewSource(seed))
	ip := func() uint32 {
		return packet.IPFromOctets([]byte{10, 10, 172}[rng.Intn(3)], byte(rng.Intn(2)), byte(rng.Intn(3)), byte(1+rng.Intn(4)))
	}
	ports := []uint16{0, 53, 80, 1023, 1024, 2004, 2005, 65535}
	nfs := []struct{ name, kind string }{
		{"fw1", "fw"}, {"fw2", "fw"}, {"fw3", "fw"}, {"nat1", "nat"}, {"nat2", "nat"}, {"vpn1", "vpn"}, {"source", "source"},
	}
	n := 1 + rng.Intn(60)
	if big {
		n = 500 + rng.Intn(501)
	}
	items := make([]Item, 0, n)
	for len(items) < n {
		if len(items) > 0 && rng.Intn(8) == 0 {
			it := items[rng.Intn(len(items))]
			it.Weight = float64(1 + rng.Intn(5))
			items = append(items, it)
			continue
		}
		nf := nfs[rng.Intn(len(nfs))]
		w := float64(1 + rng.Intn(9))
		if rng.Intn(2) == 0 {
			w = rng.ExpFloat64() * 3.7
		}
		items = append(items, Item{
			Flow: packet.FiveTuple{
				SrcIP: ip(), DstIP: ip(),
				SrcPort: ports[rng.Intn(len(ports))], DstPort: ports[rng.Intn(len(ports))],
				Proto: []uint8{packet.ProtoTCP, packet.ProtoUDP}[rng.Intn(2)],
			},
			NF: nf.name, Kind: nf.kind, Weight: w,
		})
	}
	th := 0.001 * math.Pow(500, rng.Float64())
	return items, Config{Threshold: th, MaxPatterns: []int{0, 0, 0, 5}[rng.Intn(4)]}
}

// diffAgainstOracle fails t when Aggregate and the oracle disagree on any
// pattern's aggregate, leaf count or weight bits, or on the order.
func diffAgainstOracle(t *testing.T, items []Item, cfg Config) {
	t.Helper()
	got, want := Aggregate(items, cfg), oracleAggregate(items, cfg)
	if len(got) != len(want) {
		t.Fatalf("%d items th=%g: %d patterns, oracle %d", len(items), cfg.Threshold, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Flow != w.Flow || g.NF != w.NF || g.Leaves != w.Leaves || math.Float64bits(g.Weight) != math.Float64bits(w.Weight) {
			t.Fatalf("%d items th=%g: pattern %d is %v (%d leaves, %x), oracle %v (%d leaves, %x)", len(items), cfg.Threshold,
				i, g, g.Leaves, math.Float64bits(g.Weight), w, w.Leaves, math.Float64bits(w.Weight))
		}
	}
}

var oracleCases = flag.Int("oracle-cases", 300, "differential cases TestAggregateMatchesOracle runs (the oracle takes about 30 ms a case)")

// TestAggregateMatchesOracle is the differential test of the level-ordered
// search against the exhaustive one; every 50th case is a big one.
func TestAggregateMatchesOracle(t *testing.T) {
	cases := *oracleCases
	if testing.Short() {
		cases = min(cases, 50)
	}
	for c := 0; c < cases; c++ {
		items, cfg := genCase(int64(c), c%50 == 49)
		diffAgainstOracle(t, items, cfg)
	}
}

// FuzzAggregate lets the fuzzer pick the generator's seed and mutate the
// first item, so it also reaches empty NF names and kinds, zero weights and
// ports and addresses outside the generator's universes.
func FuzzAggregate(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint32(0), uint16(0), "fw1", "fw", 1.0)
	}
	f.Add(int64(3), uint32(0x0a000001), uint16(1024), "", "fw", 2.5)
	f.Add(int64(4), uint32(0xac100203), uint16(80), "fw9", "", 0.0)
	f.Fuzz(func(t *testing.T, seed int64, src uint32, sport uint16, nf, kind string, w float64) {
		if !(w >= 0) || math.IsInf(w, 0) {
			t.Skip("weights are finite and non-negative")
		}
		items, cfg := genCase(seed, false)
		items[0].Flow.SrcIP, items[0].Flow.SrcPort = src, sport
		items[0].NF, items[0].Kind, items[0].Weight = nf, kind, w
		diffAgainstOracle(t, items, cfg)
	})
}

// TestAggregateEmptyKindCountedOnce: an item without a Kind (or NF) makes
// two lattice levels the same aggregate. The leaf joins that cell once: the
// empty level is skipped, so no pattern can outweigh the input.
func TestAggregateEmptyKindCountedOnce(t *testing.T) {
	for _, tc := range []struct{ name, nf, kind string }{
		{"empty kind", "fw1", ""}, {"empty nf", "", "fw"}, {"both empty", "", ""},
	} {
		var items []Item
		for i := 0; i < 30; i++ {
			f := ft(byte(i), uint16(1024+i*17), uint16(1024+i*31))
			f.SrcIP, f.DstIP = uint32(i)*2654435761, uint32(i)*40503+7
			items = append(items, Item{Flow: f, NF: tc.nf, Kind: tc.kind, Weight: 1})
		}
		pats := Aggregate(items, Config{Threshold: 0.5})
		var sum float64
		for _, p := range pats {
			sum += p.Weight
		}
		if len(pats) != 1 || sum > 30 {
			t.Errorf("%s: %d patterns of total weight %v from 30 items of weight 1: %v", tc.name, len(pats), sum, pats)
		}
		diffAgainstOracle(t, items, Config{Threshold: 0.5})
	}
}

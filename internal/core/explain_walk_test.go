package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// explainStores are the stores whose explanations are pinned: the 16-NF
// evaluation trace clean and faulted (walk_test.go), and the Figure 2
// chain of TestExplainPropagatedVictim, whose vpn victims recurse into an
// interrupted nat.
func explainStores() []struct {
	name string
	st   *tracestore.Store
} {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 33,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1.0)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.6)},
	)
	sim.LoadSchedule(cbr(simtime.MPPS(0.4), simtime.Duration(5*simtime.Millisecond), 7))
	sim.InjectInterrupt("nat1", simtime.Time(simtime.Millisecond), 800*simtime.Microsecond, "x")
	sim.Run(simtime.Time(100 * simtime.Millisecond))
	return []struct {
		name string
		st   *tracestore.Store
	}{
		{"eval", tracestore.Build(evalTrace(false))},
		{"eval-faulted", tracestore.Build(evalTrace(true))},
		{"chain", tracestore.Build(col.Trace(collector.MetaOf(sim)))},
	}
}

// writeTree writes every field of an explanation tree at full precision:
// Render rounds scores and weights to one and two decimals, which hides a
// weight that is slightly off.
func writeTree(w io.Writer, n *ExplainNode) {
	if n == nil {
		return
	}
	fmt.Fprintf(w, "%s %d %d %d %d %d %v %v %v [", n.Comp, n.Anchor, n.Start, n.T, n.NIn, n.NProc,
		strconv.FormatFloat(n.Si, 'g', -1, 64), strconv.FormatFloat(n.Sp, 'g', -1, 64), strconv.FormatFloat(n.Weight, 'g', -1, 64))
	for _, s := range n.Shares {
		fmt.Fprintf(w, "%s %s %s %d;", s.Comp, strconv.FormatFloat(s.Score, 'g', -1, 64), s.PathKey, s.Packets)
	}
	fmt.Fprintf(w, "] %d{", len(n.Children))
	for _, c := range n.Children {
		writeTree(w, c)
	}
	fmt.Fprint(w, "}\n")
}

// TestExplainDigest pins the explanation of every diagnosed victim of the
// explain stores, rendered and at full precision. The explanation is the
// diagnosis' own walk recorded, so a change to the recursion or to what it
// records moves the digest.
func TestExplainDigest(t *testing.T) {
	const want = "9dac864fb2b8ea245f6825eb6ebbcf0aa3b0c428d740d2b36947bde5777eec9e"
	h := sha256.New()
	for _, s := range explainStores() {
		eng := NewEngine(Config{})
		victims := eng.FindVictims(s.st)
		fmt.Fprintf(h, "== %s: %d victims\n", s.name, len(victims))
		for _, v := range victims {
			ex := eng.Explain(s.st, v)
			h.Write([]byte(ex.Render()))
			writeTree(h, ex.Root)
		}
		t.Logf("%s: %d victims", s.name, len(victims))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("explanation digest = %s, want %s", got, want)
	}
}

// causeName keys a folded score.
type causeName struct {
	comp string
	kind CulpritKind
}

// foldStats counts what a fold walked, so the test can show its trees
// exercise every rule.
type foldStats struct {
	nodes, recursed, allSp, noChild, maxDepth int
}

// foldExplanation folds an explanation tree into the (comp, kind) scores
// it accounts for:
//   - a node's Weight·Sp is local processing at that node;
//   - a share to the source is source traffic;
//   - a share to an NF with no child, or whose child has no input score
//     (Si ≤ 0: all Sp, drawn with weight 0), is local processing at that
//     NF for its whole score;
//   - otherwise the share recurses into its child, whose own Weight·Sp and
//     shares carry it.
//
// Children follow their shares' order. A recursing child carries its
// share's score as Weight·(Si+Sp), which is how the fold pairs the two.
func foldExplanation(t *testing.T, n *ExplainNode, depth int, out map[causeName]float64, fs *foldStats) {
	t.Helper()
	fs.nodes++
	fs.maxDepth = max(fs.maxDepth, depth)
	out[causeName{n.Comp, CulpritLocalProcessing}] += n.Weight * n.Sp
	children := n.Children
	for _, s := range n.Shares {
		if s.Comp == collector.SourceName {
			out[causeName{s.Comp, CulpritSourceTraffic}] += s.Score
			continue
		}
		if len(children) > 0 && children[0].Comp == s.Comp {
			c := children[0]
			switch {
			case c.Si <= 0:
				children = children[1:]
				fs.allSp++
				out[causeName{s.Comp, CulpritLocalProcessing}] += s.Score
				continue
			case closeRel(c.Weight*(c.Si+c.Sp), s.Score):
				children = children[1:]
				fs.recursed++
				foldExplanation(t, c, depth+1, out, fs)
				continue
			}
		}
		fs.noChild++
		out[causeName{s.Comp, CulpritLocalProcessing}] += s.Score
	}
	if len(children) > 0 {
		t.Errorf("%s node at %v: %d children match no share", n.Comp, n.Anchor, len(children))
	}
}

// closeRel reports a and b equal within 1e-9 relative.
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestExplainAccountsForDiagnosis: every victim's explanation tree folds
// into exactly DiagnoseVictim's causes above minScore. The tree is the
// walk the diagnosis takes, so its nodes and shares account for every
// score the diagnosis assigns, and for nothing else.
func TestExplainAccountsForDiagnosis(t *testing.T) {
	var total foldStats
	for _, s := range explainStores() {
		eng := NewEngine(Config{})
		victims := eng.FindVictims(s.st)
		if len(victims) == 0 {
			t.Fatalf("%s: no victims", s.name)
		}
		for i, v := range victims {
			ex := eng.Explain(s.st, v)
			d := eng.DiagnoseVictim(s.st, v)
			folded := map[causeName]float64{}
			if ex.Root != nil {
				foldExplanation(t, ex.Root, 0, folded, &total)
			}
			for _, c := range d.Causes {
				k := causeName{c.Comp, c.Kind}
				if got, ok := folded[k]; !ok || !closeRel(got, c.Score) {
					t.Errorf("%s victim %d: %s/%s scores %v in the diagnosis, %v in the tree", s.name, i, c.Comp, c.Kind, c.Score, got)
				}
				delete(folded, k)
			}
			for k, sc := range folded {
				if sc >= minScore*(1+1e-9) {
					t.Errorf("%s victim %d: the tree scores %s/%s %v, the diagnosis has no such cause", s.name, i, k.comp, k.kind, sc)
				}
			}
		}
	}
	t.Logf("folded %d nodes: %d recursing shares, %d all-Sp children, %d shares with no child, depth up to %d",
		total.nodes, total.recursed, total.allSp, total.noChild, total.maxDepth)
	if total.recursed == 0 || total.allSp == 0 || total.noChild == 0 {
		t.Errorf("the trees do not exercise every fold rule: %+v", total)
	}
}

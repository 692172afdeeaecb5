package core

import (
	"fmt"
	"strings"

	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// Explanation is the human-readable form of one victim's diagnosis: the
// recursion tree of Figure 7 rendered as nested queuing-period analyses,
// so an operator can audit *why* each culprit received its score rather
// than trusting a bare ranking.
type Explanation struct {
	Victim Victim
	Root   *ExplainNode
}

// ExplainNode is one queuing-period analysis in the recursion tree.
type ExplainNode struct {
	// Comp is the component whose queuing period this node analyses.
	Comp string
	// Anchor is the time the period ends (victim arrival at the root,
	// PreSet last-arrival at recursive nodes).
	Anchor simtime.Time
	// Period bounds and the §4.1 decomposition.
	Start      simtime.Time
	T          simtime.Duration
	NIn, NProc int
	Si, Sp     float64
	// Weight is the share of the victim's blame flowing through this
	// node (1.0 at the root).
	Weight float64
	// Shares lists the §4.2 timespan attribution of Si.
	Shares []ExplainShare
	// Children are the recursive analyses of upstream NFs.
	Children []*ExplainNode
}

// ExplainShare is one timespan-analysis attribution.
type ExplainShare struct {
	Comp  string
	Score float64
	// PathKey identifies the upstream path of the PreSet subset.
	PathKey string
	Packets int
}

// Explain diagnoses one victim and records the walk: the tree is the
// recursion DiagnoseVictim takes, with every queuing period it analyses
// and every share it attributes. Containment is DiagnoseVictim's: with
// ContainPanics a panic in it is contained and counted, and the
// explanation comes back with no tree.
func (e *Engine) Explain(st *tracestore.Store, v Victim) *Explanation {
	d := e.newDiagnoser(st)
	a := e.takeArena(d)
	defer e.putArenas(a)
	defer d.bookWalks()
	ex := &Explanation{Victim: v}
	e.contain(d, "victim", func() {
		e.chaos("victim:0")
		a.sc.reset()
		ex.Root = d.diagnoseAt(st.CompIDOf(v.Comp), v.ArriveAt, a, true)
	})
	return ex
}

// explainNode records the queuing period qp at comp, anchored at t, with
// its §4.1 scores and the weight the recursion gives it. A node whose
// period has no input score (Si ≤ 0) keeps its line: its blame is local.
func (d *diagnoser) explainNode(comp tracestore.CompID, t simtime.Time, qp *tracestore.QueuingPeriod, ls LocalScores, weight float64) *ExplainNode {
	return &ExplainNode{
		Comp:   d.st.CompName(comp),
		Anchor: t,
		Start:  qp.Start,
		T:      qp.T(),
		NIn:    qp.NIn,
		NProc:  qp.NProc,
		Si:     ls.Si,
		Sp:     ls.Sp,
		Weight: weight,
	}
}

// Render prints the tree with indentation, one queuing period per line
// plus its attribution shares.
func (ex *Explanation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "victim: %s at %s (t=%v, queue delay %v)\n",
		ex.Victim.Kind, ex.Victim.Comp, ex.Victim.ArriveAt, ex.Victim.QueueDelay)
	if ex.Root == nil {
		b.WriteString("  no queuing period found — the delay is not queue-induced\n")
		return b.String()
	}
	renderNode(&b, ex.Root, 1)
	return b.String()
}

func renderNode(b *strings.Builder, n *ExplainNode, depth int) {
	pad := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%squeuing period at %s: [%v .. %v] (T=%v) n_i=%d n_p=%d -> Si=%.1f Sp=%.1f (weight %.2f)\n",
		pad, n.Comp, n.Start, n.Anchor, n.T, n.NIn, n.NProc, n.Si, n.Sp, n.Weight)
	for _, s := range n.Shares {
		fmt.Fprintf(b, "%s  input pressure from %-8s score=%.1f via %s (%d packets)\n",
			pad, s.Comp, s.Score, s.PathKey, s.Packets)
	}
	for _, c := range n.Children {
		renderNode(b, c, depth+1)
	}
}

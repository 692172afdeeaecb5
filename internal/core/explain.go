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

// Explain reproduces the diagnosis of one victim while recording every
// intermediate quantity. It mirrors DiagnoseVictim's recursion exactly,
// containment included: with ContainPanics a panic in it is contained and
// counted, and the explanation comes back with no tree.
func (e *Engine) Explain(st *tracestore.Store, v Victim) *Explanation {
	d := e.newDiagnoser(st)
	a := e.takeArena(d)
	defer e.putArenas(a)
	defer d.bookWalks()
	ex := &Explanation{Victim: v}
	e.contain(d, "victim", func() {
		e.chaos("victim:0")
		ex.Root = d.explainAt(st.CompIDOf(v.Comp), v.ArriveAt, 1.0, 0, a)
	})
	return ex
}

func (d *diagnoser) explainAt(comp tracestore.CompID, t simtime.Time, weight float64, depth int, a *workerArena) *ExplainNode {
	// Unlike the scoring recursion, the explanation keeps zero-weight
	// nodes: a culprit whose blame is purely local (Sp) still deserves
	// its queuing-period line in the tree.
	if depth > d.cfg.MaxRecursionDepth || weight < 0 {
		return nil
	}
	qp := d.st.QueuingPeriodThresholdID(comp, t, d.cfg.QueueThreshold)
	if qp == nil || qp.NIn == 0 {
		return nil
	}
	r := d.st.PeakRateID(comp)
	if r <= 0 {
		return nil
	}
	ls := localDiagnose(qp, r)
	node := &ExplainNode{
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
	if ls.Si <= 0 {
		return node
	}
	budget := weight * ls.Si
	for _, pr := range d.propagate(comp, qp, budget, a) {
		node.Shares = append(node.Shares, ExplainShare{
			Comp:    d.st.CompName(pr.comp),
			Score:   pr.score,
			PathKey: d.pathLabel(pr.path),
			Packets: pr.path.n,
		})
		if pr.comp == d.src {
			continue
		}
		anchor := pr.path.lastArrive[pr.compIdx]
		sub := d.splitAtNF(pr.comp, anchor, pr.score)
		if sub == nil {
			continue
		}
		childWeight := 0.0
		if sub.inputShare > 0 {
			childWeight = sub.inputShare / maxf(sub.ls.Si, 1e-9)
		}
		if child := d.explainAt(pr.comp, anchor, childWeight, depth+1, a); child != nil {
			node.Children = append(node.Children, child)
		}
	}
	return node
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

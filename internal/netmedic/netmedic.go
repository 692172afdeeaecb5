// Package netmedic implements the state-of-the-art baseline the paper
// compares against (§6.1): NetMedic [36] adapted to NFV.
//
// Following the paper's adaptation: components are the NFs plus the traffic
// source, edges are the links of the deployment DAG, and per component we
// monitor the variables NF performance depends on — input rate, processing
// rate, and queue occupancy — in fixed time windows (10 ms by default, the
// size the paper found best). A component is abnormal in a window when a
// variable deviates from its per-run history by more than one standard
// deviation. Causes for a victim are ranked by the product of the
// culprit's abnormality in the victim's window and the strength of the
// historical co-abnormality along the dependency path to the victim —
// NetMedic's time-based correlation. Every component receives a rank, as
// the paper notes ("NetMedic still gives it a rank because it gives every
// possible culprit a rank").
//
// The known failure modes the paper demonstrates fall out naturally: an
// impact that propagates with a delay longer than the window cannot
// correlate, and a burst inflates the local processing-rate variable,
// misleading the ranking toward the victim NF itself.
package netmedic

import (
	"math"
	"sort"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/simtime"
	"microscope/internal/stats"
	"microscope/internal/tracestore"
)

// Config tunes the baseline.
type Config struct {
	// Window is the correlation window size (default 10ms, §6.1).
	Window simtime.Duration
	// AbnormalZ is the z-score beyond which a variable is abnormal
	// (default 1, matching the one-standard-deviation test).
	AbnormalZ float64
}

func (c *Config) setDefaults() {
	if c.Window == 0 {
		c.Window = 10 * simtime.Millisecond
	}
	if c.AbnormalZ == 0 {
		c.AbnormalZ = 1
	}
}

// RankedComp is one ranked culprit candidate.
type RankedComp struct {
	Comp  string
	Score float64
}

// Result is the ranked diagnosis for one victim.
type Result struct {
	Victim core.Victim
	Ranked []RankedComp
}

// RankOf returns the 1-based rank of comp, or 0.
func (r *Result) RankOf(comp string) int {
	for i := range r.Ranked {
		if r.Ranked[i].Comp == comp {
			return i + 1
		}
	}
	return 0
}

// Engine precomputes windowed state from a trace and answers victim
// queries.
type Engine struct {
	cfg    Config
	st     *tracestore.Store
	comps  []string
	kindOf map[string]string

	nWin   int
	window simtime.Duration
	// vars[comp][win] = variable vector.
	vars map[string][]stateVec
	// z[comp][win] = max abnormality z-score across variables.
	z map[string][]float64
	// edgeW[from][to] = historical co-abnormality strength.
	edgeW map[string]map[string]float64
	// upstream adjacency.
	ups map[string][]string
}

// stateVec is the per-window monitored state of one component.
type stateVec struct {
	inRate   float64 // packets entering the component's queue per window
	procRate float64 // packets dequeued per window
	queueLen float64 // queue length at window end
	queueMax float64 // max queue occupancy polled within the window
}

// queuePollsPerWindow is how many intra-window occupancy polls feed
// queueMax, mirroring a monitoring agent sampling ring occupancy.
const queuePollsPerWindow = 16

// New builds the windowed model from a reconstructed trace store.
func New(st *tracestore.Store, cfg Config) *Engine {
	cfg.setDefaults()
	e := &Engine{
		cfg:    cfg,
		st:     st,
		window: cfg.Window,
		kindOf: make(map[string]string),
		vars:   make(map[string][]stateVec),
		z:      make(map[string][]float64),
		edgeW:  make(map[string]map[string]float64),
		ups:    make(map[string][]string),
	}
	// Trace horizon.
	var end simtime.Time
	for i := range st.Trace.Records {
		if at := st.Trace.Records[i].At; at > end {
			end = at
		}
	}
	e.nWin = int(end/simtime.Time(cfg.Window)) + 1
	for _, cm := range st.Trace.Meta.Components {
		e.comps = append(e.comps, cm.Name)
		e.kindOf[cm.Name] = cm.Kind
		e.ups[cm.Name] = st.Trace.Meta.Upstreams(cm.Name)
	}
	e.computeVars()
	e.computeAbnormality()
	e.computeEdgeWeights()
	return e
}

func (e *Engine) winOf(t simtime.Time) int {
	w := int(t / simtime.Time(e.window))
	if w < 0 {
		w = 0
	}
	if w >= e.nWin {
		w = e.nWin - 1
	}
	return w
}

// computeVars fills per-window monitored variables from the record stream.
// The source's "processing rate" is its emission rate.
func (e *Engine) computeVars() {
	for _, c := range e.comps {
		e.vars[c] = make([]stateVec, e.nWin)
	}
	for i := range e.st.Trace.Records {
		r := &e.st.Trace.Records[i]
		w := e.winOf(r.At)
		switch r.Dir {
		case collector.DirRead:
			if vs := e.vars[r.Comp]; vs != nil {
				vs[w].procRate += float64(len(r.IPIDs))
			}
		case collector.DirWrite:
			// Input to the destination queue; output of the writer.
			if vs := e.vars[r.Comp]; vs != nil && r.Comp == collector.SourceName {
				vs[w].procRate += float64(len(r.IPIDs))
			}
			if vs := e.vars[collector.ConsumerOf(r.Queue)]; vs != nil {
				vs[w].inRate += float64(len(r.IPIDs))
			}
		case collector.DirDeliver:
			if vs := e.vars[r.Comp]; vs != nil {
				vs[w].procRate += float64(len(r.IPIDs))
			}
		}
	}
	// Queue occupancy via the store's reconstruction: end-of-window
	// length plus an intra-window max from periodic polls.
	for _, c := range e.comps {
		vs := e.vars[c]
		step := simtime.Duration(e.window) / queuePollsPerWindow
		if step < 1 {
			step = 1
		}
		for w := 0; w < e.nWin; w++ {
			start := simtime.Time(w) * simtime.Time(e.window)
			end := start.Add(simtime.Duration(e.window))
			vs[w].queueLen = float64(e.st.QueueLenAt(c, end-1))
			maxQ := 0
			for t := start; t < end; t = t.Add(step) {
				if q := e.st.QueueLenAt(c, t); q > maxQ {
					maxQ = q
				}
			}
			vs[w].queueMax = float64(maxQ)
		}
	}
}

// computeAbnormality turns variables into per-window max z-scores.
func (e *Engine) computeAbnormality() {
	for _, c := range e.comps {
		vs := e.vars[c]
		var in, proc, ql, qm stats.Welford
		for w := range vs {
			in.Add(vs[w].inRate)
			proc.Add(vs[w].procRate)
			ql.Add(vs[w].queueLen)
			qm.Add(vs[w].queueMax)
		}
		zs := make([]float64, e.nWin)
		for w := range vs {
			z := zscore(vs[w].inRate, &in)
			if v := zscore(vs[w].procRate, &proc); v > z {
				z = v
			}
			if v := zscore(vs[w].queueLen, &ql); v > z {
				z = v
			}
			if v := zscore(vs[w].queueMax, &qm); v > z {
				z = v
			}
			zs[w] = z
		}
		e.z[c] = zs
	}
}

// zscore measures absolute deviation in standard deviations, capped so a
// single extreme window cannot dominate every ranking.
func zscore(x float64, w *stats.Welford) float64 {
	sd := w.StdDev()
	if sd == 0 {
		if x != w.Mean() {
			return 2
		}
		return 0
	}
	z := math.Abs(x-w.Mean()) / sd
	if z > 10 {
		z = 10
	}
	return z
}

// computeEdgeWeights estimates how strongly abnormality at an upstream
// component co-occurs with abnormality at its downstream within the same
// window — NetMedic's history-based dependency strength.
func (e *Engine) computeEdgeWeights() {
	for _, d := range e.comps {
		for _, u := range e.ups[d] {
			both, upAb := 0, 0
			for w := 0; w < e.nWin; w++ {
				if e.z[u][w] >= e.cfg.AbnormalZ {
					upAb++
					if e.z[d][w] >= e.cfg.AbnormalZ {
						both++
					}
				}
			}
			wgt := 0.1 // weak prior: dependencies exist even without history
			if upAb > 0 {
				wgt = math.Max(0.1, float64(both)/float64(upAb))
			}
			m := e.edgeW[u]
			if m == nil {
				m = make(map[string]float64)
				e.edgeW[u] = m
			}
			m[d] = wgt
		}
	}
}

// pathWeight returns the max-product dependency weight from comp to the
// victim component across the DAG (1 for the victim itself, 0 if no path).
func (e *Engine) pathWeight(from, to string) float64 {
	if from == to {
		return 1
	}
	memo := make(map[string]float64)
	var walk func(string) float64
	walk = func(c string) float64 {
		if c == from {
			return 1
		}
		if v, ok := memo[c]; ok {
			return v
		}
		memo[c] = 0 // cycle guard (the graph is a DAG, but be safe)
		best := 0.0
		for _, u := range e.ups[c] {
			w := walk(u)
			if w <= 0 {
				continue
			}
			ew := 0.1
			if m := e.edgeW[u]; m != nil {
				if v, ok := m[c]; ok {
					ew = v
				}
			}
			if p := w * ew; p > best {
				best = p
			}
		}
		memo[c] = best
		return best
	}
	return walk(to)
}

// Diagnose ranks culprit components for each victim: abnormality in the
// victim's time window, discounted by dependency-path strength.
func (e *Engine) Diagnose(victims []core.Victim) []Result {
	out := make([]Result, 0, len(victims))
	for _, v := range victims {
		w := e.winOf(v.ArriveAt)
		ranked := make([]RankedComp, 0, len(e.comps))
		for _, c := range e.comps {
			pw := e.pathWeight(c, v.Comp)
			score := e.z[c][w] * pw
			// Every component gets a rank; unreachable or quiet
			// ones sink with epsilon scores.
			if score <= 0 {
				score = 1e-9 * e.z[c][w]
			}
			ranked = append(ranked, RankedComp{Comp: c, Score: score})
		}
		sort.SliceStable(ranked, func(i, j int) bool {
			if ranked[i].Score != ranked[j].Score {
				return ranked[i].Score > ranked[j].Score
			}
			return ranked[i].Comp < ranked[j].Comp
		})
		out = append(out, Result{Victim: v, Ranked: ranked})
	}
	return out
}

package core

import (
	"strings"

	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// pathStats aggregates the PreSet subset that traversed one upstream path.
// It is a prefix of a busy period's walk (walk.go): its slices alias the
// walk's append-only rows and are read-only.
type pathStats struct {
	comps []tracestore.CompID // upstream components in order, comps[0] is the source
	// journeys of the subset (journey references), for culprit reporting.
	journeys []int
	n        int
	// spans[i] is the subset's timespan at comps[i]: the interval between
	// the first and the last packet leaving that component (§4.2). For
	// the source this is the emission span.
	spans []simtime.Duration
	// lastSpan is the subset's arrival timespan at the victim NF.
	lastSpan simtime.Duration
	// firstArrive[i] is when the subset's first packet arrived at
	// comps[i] (source: first emission).
	firstArrive []simtime.Time
	// lastArrive[i] is when the subset's last packet arrived at
	// comps[i]. The §4.3 recursion anchors on it: the queuing period at
	// an upstream NF ending at the subset's last arrival covers both a
	// pre-existing queue (the "grey packets" of Figure 6) and queuing
	// that built up during the subset's own sojourn (an interrupt
	// stalling the NF while the subset waits).
	lastArrive []simtime.Time
}

// propagate implements the §4.2 timespan analysis: it splits budget (the
// victim NF's S_i, or a recursive share of it) across the traffic source
// and upstream NFs, by how much each squeezed the PreSet's timespan
// relative to the expected timespan Texp = n_i(T)/r_f.
//
// The chain rule is a backward pass with a rising "effective timespan"
// level: walking from the victim NF toward the source, a hop's share is
// max(0, upstreamSpan - level), then level = max(level, upstreamSpan); the
// virtual hop above the source is Texp. This reproduces the paper's worked
// example exactly: a downstream increase (B) zeroes that hop's share and
// debits the upstream reducer (A) only down to B's span.
type propagated struct {
	comp  tracestore.CompID
	score float64
	// subset describes the PreSet packets flowing through this comp for
	// this share (for recursion and culprit reporting).
	path *pathStats
	// compIdx is the index of comp within path.comps (-1 for source).
	compIdx int
}

func (d *diagnoser) propagate(f tracestore.CompID, qp *tracestore.QueuingPeriod, budget float64, a *workerArena) []propagated {
	// The decomposition is budget-independent; many victims (and the §4.3
	// recursion itself) revisit the same (NF, period), so it is memoized
	// with single-flight semantics and only the linear budget scaling
	// happens per call. The computing caller's arena supplies the walk
	// scratch; the cached value never references it.
	pps := d.memo.prop.do(periodKey{comp: f, start: qp.Start, end: qp.End}, d.memoHits, d.memoMisses, d.memoReused, func() []propPath {
		return d.decomposePeriod(f, qp, &a.cs)
	})
	out := make([]propagated, 0, len(pps))
	for pi := range pps {
		pp := &pps[pi]
		if pp.sum <= 0 {
			// The subset was no burstier than expected: sustained
			// input pressure, attributed to the source.
			out = append(out, propagated{
				comp: d.src, score: budget * pp.weight, path: pp.path, compIdx: -1,
			})
			continue
		}
		if pp.srcShare > 0 {
			out = append(out, propagated{
				comp:    d.src,
				score:   budget * pp.weight * float64(pp.srcShare) / float64(pp.sum),
				path:    pp.path,
				compIdx: -1,
			})
		}
		for i, s := range pp.shares {
			if s <= 0 {
				continue
			}
			out = append(out, propagated{
				comp:    pp.path.comps[i+1], // shares[i] belongs to comps[i+1] (comps[0] is source)
				score:   budget * pp.weight * float64(s) / float64(pp.sum),
				path:    pp.path,
				compIdx: i + 1,
			})
		}
	}
	return out
}

// decomposePeriod computes the budget-independent half of the §4.2
// analysis: the PreSet path subsets of the period with their timespan
// shares. Pure over the immutable index, so safe to cache and share.
func (d *diagnoser) decomposePeriod(f tracestore.CompID, qp *tracestore.QueuingPeriod, cs *collectScratch) []propPath {
	paths := d.collectPaths(f, qp, cs)
	if len(paths) == 0 {
		return nil
	}
	rf := d.st.PeakRateID(f)
	if rf <= 0 {
		return nil
	}
	// Texp is common to every path (§4.2, DAG case): interleaved subsets
	// are expected to span the whole n_i(T)/r_f.
	texp := simtime.Duration(float64(qp.NIn) / rf.PPS() * float64(simtime.Second))

	total := 0
	for i := range paths {
		total += paths[i].n
	}
	pps := make([]propPath, 0, len(paths))
	for i := range paths {
		p := &paths[i]
		shares, srcShare := timespanShares(texp, p)
		var sum simtime.Duration
		for _, s := range shares {
			sum += s
		}
		sum += srcShare
		pps = append(pps, propPath{
			path:     p,
			weight:   float64(p.n) / float64(total),
			shares:   shares,
			srcShare: srcShare,
			sum:      sum,
		})
	}
	return pps
}

// timespanShares runs the backward level pass over one path. comps[0] is
// the source; spans[i] parallels comps. It returns per-NF shares (indexed
// by comps[1:]) and the source share.
func timespanShares(texp simtime.Duration, p *pathStats) (nfShares []simtime.Duration, srcShare simtime.Duration) {
	k := len(p.comps) - 1 // number of NF hops on the path
	nfShares = make([]simtime.Duration, k)
	level := p.lastSpan
	// NF hops from last to first; hop i's input span is spans[i-1]
	// (the span at the previous component).
	for i := k; i >= 1; i-- {
		in := p.spans[i-1]
		if in > level {
			nfShares[i-1] = in - level
			level = in
		}
	}
	// The source's own reduction is measured against Texp.
	if texp > level {
		srcShare = texp - level
	}
	return nfShares, srcShare
}

// collectScratch is the per-arrival workspace of the busy-period walk: the
// hop walk and the path-key encoding reuse these buffers, so grouping a
// thousand-packet PreSet allocates only when a new path appears. It lives
// inside the worker arena (diagnose.go) and is reused across every walk a
// worker extends during a run.
type collectScratch struct {
	key     []byte
	comps   []tracestore.CompID
	departs []simtime.Time
	arrives []simtime.Time
}

// collectPaths groups the PreSet(p) arrivals of the queuing period by the
// upstream path their journeys took to f, and computes per-path timespans,
// in the order of the paths' CompID sequences (a total deterministic
// order, so every worker sees the same decomposition). The period is a
// prefix of its busy period, whose walk answers it.
func (d *diagnoser) collectPaths(f tracestore.CompID, qp *tracestore.QueuingPeriod, cs *collectScratch) []pathStats {
	arrivals := d.st.PeriodArrivals(qp)
	if arrivals == nil {
		return nil
	}
	return d.walkOf(f, qp).pathsOf(d, f, arrivals, cs)
}

// pathLabel renders a path's human-readable form ("source>a>b") for
// explain/report output; hot paths carry only the interned key.
func (d *diagnoser) pathLabel(p *pathStats) string {
	var b strings.Builder
	for i, c := range p.comps {
		if i > 0 {
			b.WriteByte('>')
		}
		b.WriteString(d.st.CompName(c))
	}
	return b.String()
}

package tracestore

import (
	"sort"

	"microscope/internal/collector"
	"microscope/internal/simtime"
)

// Cross-machine deployments timestamp records with different clocks; the
// paper requires microsecond-level synchronization (PTP/Huygens, §7).
// AlignClocks provides the software fallback: it estimates each
// component's clock offset from the trace itself and returns a corrected
// copy, so traces collected without hardware sync remain diagnosable.
//
// The estimator uses the FIFO invariant of each queue: the k-th packet
// dequeued by a component is the k-th packet enqueued, and its recorded
// dequeue time is its recorded enqueue time plus queueing delay plus the
// relative clock offset. Queueing delay is non-negative and reaches ~zero
// whenever the queue empties, so
//
//	offset(d) - offset(u)  ≈  min_k ( read_d[k] - write_u[k] )
//
// per edge; offsets then propagate from the traffic source (offset 0)
// through the DAG, taking the minimum across a component's upstream
// estimates. The position-aligned form requires single-upstream queues;
// for multi-upstream queues the estimator falls back to nearest-read
// matching, which stays correct as long as the relative skew is smaller
// than the inter-batch spacing.
//
//mslint:allow compid AlignClocks runs on the raw collector trace before the interner exists
func AlignClocks(tr *collector.Trace) (map[string]simtime.Duration, *collector.Trace) {
	// maxSkew bounds the relative offset the estimator searches for.
	const maxSkew = 50 * simtime.Millisecond

	// Per destination: per-upstream write entries, and the destination's
	// read entries, both per packet with IPIDs.
	type entry struct {
		at   simtime.Time
		ipid uint16
	}
	//mslint:allow compid clock alignment runs on the raw collector trace before the interner exists
	writeSeq := make(map[string]map[string][]entry) // dest -> upstream -> entries
	readSeq := make(map[string][]entry)             //mslint:allow compid clock alignment runs on the raw collector trace before the interner exists
	for i := range tr.Records {
		r := &tr.Records[i]
		switch r.Dir {
		case collector.DirWrite:
			dest := collector.ConsumerOf(r.Queue)
			m := writeSeq[dest]
			if m == nil {
				//mslint:allow compid clock alignment runs on the raw collector trace before the interner exists
				m = make(map[string][]entry)
				writeSeq[dest] = m
			}
			for _, id := range r.IPIDs {
				m[r.Comp] = append(m[r.Comp], entry{at: r.At, ipid: id})
			}
		case collector.DirRead:
			for _, id := range r.IPIDs {
				readSeq[r.Comp] = append(readSeq[r.Comp], entry{at: r.At, ipid: id})
			}
		}
	}

	// Per-edge relative offset estimates.
	edgeDelta := make(map[[2]string]simtime.Duration)
	for dest, ups := range writeSeq {
		reads := readSeq[dest]
		if len(reads) == 0 {
			continue
		}
		if len(ups) == 1 {
			// Single upstream: the FIFO position-aligned form is
			// exact even under arbitrary skew.
			for u, writes := range ups {
				n := len(writes)
				if len(reads) < n {
					n = len(reads)
				}
				if n == 0 {
					continue
				}
				min := reads[0].at.Sub(writes[0].at)
				for k := 1; k < n; k++ {
					if d := reads[k].at.Sub(writes[k].at); d < min {
						min = d
					}
				}
				edgeDelta[[2]string{u, dest}] = min
			}
			continue
		}
		// Multi-upstream queues interleave unpredictably; match write
		// and read entries by IPID within the skew window instead. The
		// first same-IPID read at or after (write - maxSkew) is almost
		// always the true one; the min over many pairs converges to
		// the relative offset whenever the queue empties.
		readTimesByIPID := make(map[uint16][]simtime.Time)
		for _, re := range reads {
			readTimesByIPID[re.ipid] = append(readTimesByIPID[re.ipid], re.at)
		}
		for u, writes := range ups {
			var min simtime.Duration
			have := false
			for _, we := range writes {
				rs := readTimesByIPID[we.ipid]
				lo := we.at.Add(-maxSkew)
				i := sort.Search(len(rs), func(k int) bool { return rs[k] >= lo })
				if i >= len(rs) {
					continue
				}
				d := rs[i].Sub(we.at)
				if d > maxSkew {
					continue
				}
				if !have || d < min {
					min, have = d, true
				}
			}
			if have {
				edgeDelta[[2]string{u, dest}] = min
			}
		}
	}

	// Propagate offsets from the source through the component graph.
	//mslint:allow compid offsets are keyed by raw collector names; the store is not built yet
	offsets := map[string]simtime.Duration{collector.SourceName: 0}
	// Breadth-first over meta edges; min across upstream estimates.
	changed := true
	for iter := 0; iter < len(tr.Meta.Components)+2 && changed; iter++ {
		changed = false
		for _, e := range tr.Meta.Edges {
			uOff, ok := offsets[e.From]
			if !ok {
				continue
			}
			d, ok := edgeDelta[[2]string{e.From, e.To}]
			if !ok {
				continue
			}
			est := uOff + d
			if cur, ok := offsets[e.To]; !ok || est < cur {
				offsets[e.To] = est
				changed = true
			}
		}
	}

	// Build the corrected trace: subtract each component's offset from
	// its own records, preserving global time order.
	out := &collector.Trace{Meta: tr.Meta}
	out.Records = make([]collector.BatchRecord, len(tr.Records))
	copy(out.Records, tr.Records)
	for i := range out.Records {
		if off, ok := offsets[out.Records[i].Comp]; ok {
			out.Records[i].At = out.Records[i].At.Add(-off)
		}
	}
	sort.SliceStable(out.Records, func(i, j int) bool {
		return out.Records[i].At < out.Records[j].At
	})
	return offsets, out
}

// SkewTrace shifts every record of the named component by off — a test
// helper simulating an unsynchronized clock (exported because experiment
// code and examples also exercise the alignment path).
func SkewTrace(tr *collector.Trace, comp string, off simtime.Duration) *collector.Trace {
	out := &collector.Trace{Meta: tr.Meta}
	out.Records = make([]collector.BatchRecord, len(tr.Records))
	copy(out.Records, tr.Records)
	for i := range out.Records {
		if out.Records[i].Comp == comp {
			out.Records[i].At = out.Records[i].At.Add(off)
		}
	}
	sort.SliceStable(out.Records, func(i, j int) bool {
		return out.Records[i].At < out.Records[j].At
	})
	return out
}

package tracestore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/simtime"
)

// matchQueueByScan is matchQueue as it stood before its heads were kept
// current and its reorder search went by IPID chains: every dequeue
// re-advances every upstream's head over a consumed flag per arrival, and
// the bounded search scans each upstream's arrivals in turn. It is the
// reference TestMatchQueueMatchesScan holds matchQueue to.
func matchQueueByScan(s *Store, sc *scratch, v *CompView) {
	reads := sc.views[v.ID].reads
	if len(reads) == 0 || len(v.Arrivals) == 0 {
		return
	}
	// Per-upstream arrival streams, in first-appearance order of the
	// upstream: count, carve streamIdx, fill.
	for i := range sc.upSlot {
		sc.upSlot[i] = -1
	}
	var ptr []int // per-stream arrival counts first, heads afterwards
	for ai := range v.Arrivals {
		u := v.Arrivals[ai].From
		k := sc.upSlot[u]
		if k < 0 {
			k = int32(len(ptr))
			sc.upSlot[u] = k
			ptr = append(ptr, 0)
		}
		ptr[k]++
	}
	streams := make([][]int32, len(ptr))
	rest := make([]int32, len(v.Arrivals))
	for k := range streams {
		streams[k], rest = carve(rest, ptr[k])
		ptr[k] = 0
	}
	for ai := range v.Arrivals {
		k := sc.upSlot[v.Arrivals[ai].From]
		streams[k] = append(streams[k], int32(ai))
	}
	consumed := make([]bool, len(v.Arrivals))
	deqMatch := sc.deqOfArrival[v.ID]

	advance := func(u int) int {
		for ptr[u] < len(streams[u]) && consumed[streams[u][ptr[u]]] {
			ptr[u]++
		}
		if ptr[u] >= len(streams[u]) {
			return -1
		}
		return int(streams[u][ptr[u]])
	}

	// greedyOK reports whether, in a tentative world where extraConsumed
	// is taken, the next few dequeues can still find head matches. The
	// tentative set is at most 1+lookaheadDepth entries, so a fixed
	// array with a linear scan beats a per-call map.
	greedyOK := func(k int, extraConsumed int) int {
		var taken [lookaheadDepth + 1]int
		taken[0] = extraConsumed
		nt := 1
		isTaken := func(ai int) bool {
			for i := 0; i < nt; i++ {
				if taken[i] == ai {
					return true
				}
			}
			return false
		}
		score := 0
		for step := 1; step <= lookaheadDepth && k+step < len(reads); step++ {
			d := reads[k+step]
			found := false
			for u := range streams {
				p := ptr[u]
				for p < len(streams[u]) && (consumed[streams[u][p]] || isTaken(int(streams[u][p]))) {
					p++
				}
				if p >= len(streams[u]) {
					continue
				}
				ai := int(streams[u][p])
				if v.Arrivals[ai].At <= d.At && v.Arrivals[ai].IPID == d.IPID {
					taken[nt] = ai
					nt++
					found = true
					break
				}
			}
			if !found {
				break
			}
			score++
		}
		return score
	}

	for k := range reads {
		d := &reads[k]
		// Side channel 1 (paths): only immediate upstream heads are
		// candidates. Side channel 2 (timing): arrival must precede
		// the dequeue.
		var cands []int // arrival indices, at most one per upstream
		for u := range streams {
			ai := advance(u)
			if ai >= 0 && v.Arrivals[ai].At <= d.At && v.Arrivals[ai].IPID == d.IPID {
				cands = append(cands, ai)
			}
		}
		switch {
		case len(cands) == 1:
			consumed[cands[0]] = true
			deqMatch[cands[0]] = int32(k)
			s.recon.Matched++
		case len(cands) > 1:
			// Side channel 3 (order): pick the candidate whose
			// consumption keeps the subsequent dequeue stream
			// consistent; prefer the earliest-written on ties.
			best, bestScore, ties := -1, -1, 0
			for _, ai := range cands {
				score := greedyOK(k, ai)
				switch {
				case score > bestScore:
					best, bestScore, ties = ai, score, 1
				case score == bestScore:
					ties++
					if best >= 0 && v.Arrivals[ai].At < v.Arrivals[best].At {
						best = ai
					}
				}
			}
			if ties > 1 {
				// All three side channels exhausted and the
				// duplicate IPID is still ambiguous: the pick is
				// a guess, so flag the arrival for quarantine.
				v.Arrivals[best].Quarantined = true
				s.recon.DupCollisions++
			}
			consumed[best] = true
			deqMatch[best] = int32(k)
			s.recon.LookaheadFix++
		default:
			// No head matches: same-instant interleavings can put
			// the true arrival slightly deeper; search a bounded
			// window.
			best := -1
			for u := range streams {
				p := ptr[u]
				scanned := 0
				for p < len(streams[u]) && scanned < reorderSearchBound {
					ai := int(streams[u][p])
					p++
					if consumed[ai] {
						continue
					}
					scanned++
					if v.Arrivals[ai].At > d.At {
						break
					}
					if v.Arrivals[ai].IPID == d.IPID {
						if best < 0 || v.Arrivals[ai].At < v.Arrivals[best].At {
							best = ai
						}
						break
					}
				}
			}
			if best >= 0 {
				consumed[best] = true
				deqMatch[best] = int32(k)
				s.recon.Reordered++
			} else {
				s.recon.Unmatched++
			}
		}
	}
}

// queueTrace is three upstreams writing into one queue that c reads, with
// IPIDs drawn from a range of span values (a small one makes them
// collide), packets written but dropped before the queue (heads that are
// never taken), dequeues swapped within a batch, carrying an IPID never
// written or taken from anywhere in the backlog, writes at equal times,
// and stretches with few reads, so that backlogs pass the search bound.
func queueTrace(rng *rand.Rand, steps, span int) *collector.Trace {
	meta := twoUpstreamMeta()
	meta.Components = append(meta.Components, collector.ComponentMeta{Name: "u3", Kind: "nat", PeakRate: simtime.MPPS(1)})
	meta.Edges = append(meta.Edges, collector.Edge{From: "source", To: "u3"}, collector.Edge{From: "u3", To: "c"})
	var recs []collector.BatchRecord
	var queue []uint16
	at := simtime.Time(10)
	for step := 0; step < steps; step++ {
		at += simtime.Time(rng.Intn(3))
		readOdds := 2 + 6*(step/150%2) // phases of few and of many reads
		if len(queue) == 0 || rng.Intn(8) >= readOdds {
			ids := make([]uint16, 1+rng.Intn(6))
			for i := range ids {
				ids[i] = uint16(rng.Intn(span))
				if rng.Intn(16) != 0 {
					queue = append(queue, ids[i])
				}
			}
			recs = append(recs, collector.BatchRecord{Comp: fmt.Sprintf("u%d", 1+rng.Intn(3)), Queue: "c.in", At: at, Dir: collector.DirWrite, IPIDs: ids})
			continue
		}
		if rng.Intn(10) == 0 {
			j := rng.Intn(len(queue))
			recs = append(recs, collector.BatchRecord{Comp: "c", Queue: "c.in", At: at, Dir: collector.DirRead, IPIDs: []uint16{queue[j]}})
			queue = slices.Delete(queue, j, j+1)
			continue
		}
		n := 1 + rng.Intn(min(32, len(queue)))
		ids := slices.Clone(queue[:n])
		queue = queue[n:]
		if n > 1 && rng.Intn(6) == 0 {
			i := rng.Intn(n - 1)
			ids[i], ids[i+1] = ids[i+1], ids[i]
		}
		if rng.Intn(12) == 0 { // an IPID never written, or not yet
			ids[rng.Intn(n)] = uint16(rng.Intn(span)) | uint16(rng.Intn(2))<<15
		}
		recs = append(recs, collector.BatchRecord{Comp: "c", Queue: "c.in", At: at, Dir: collector.DirRead, IPIDs: ids})
	}
	return &collector.Trace{Meta: meta, Records: recs}
}

// TestMatchQueueMatchesScan: matchQueue pairs every dequeue with the
// arrival the plain scan pairs it with, flags the same arrivals and counts
// the same outcomes, over random queues whose matching goes through every
// side channel and past the reorder search's bound.
func TestMatchQueueMatchesScan(t *testing.T) {
	// At the bound: u1 writes IPIDs 0…69, and c first dequeues 64, which
	// the search does not reach (64 unconsumed arrivals before it), then
	// 63, which it does.
	bound := &collector.Trace{Meta: twoUpstreamMeta()}
	var ids []uint16
	for i := 0; i < 70; i++ {
		ids = append(ids, uint16(i))
	}
	bound.Records = []collector.BatchRecord{
		{Comp: "u1", Queue: "c.in", At: 10, Dir: collector.DirWrite, IPIDs: ids},
		{Comp: "c", Queue: "c.in", At: 20, Dir: collector.DirRead, IPIDs: []uint16{64, 63}},
	}
	rng := rand.New(rand.NewSource(17))
	var total ReconStats
	for trial := 0; trial < 201; trial++ {
		tr := bound
		if trial > 0 {
			tr = queueTrace(rng, 100+rng.Intn(600), []int{48, 4096}[trial%2])
		}
		got, want := &Store{}, &Store{}
		gsc, wsc := &scratch{}, &scratch{}
		got.build(tr, gsc)
		want.build(tr, wsc)
		got.indexReads(gsc)
		want.indexReads(wsc)
		for id, v := range got.views {
			got.matchQueue(gsc, v)
			matchQueueByScan(want, wsc, want.views[id])
			if !slices.Equal(gsc.deqOfArrival[id], wsc.deqOfArrival[id]) {
				t.Fatalf("trial %d, %s: dequeues paired differently", trial, v.Name)
			}
			if !slices.Equal(v.Arrivals, want.views[id].Arrivals) {
				t.Fatalf("trial %d, %s: quarantine flags differ", trial, v.Name)
			}
		}
		if got.recon != want.recon {
			t.Fatalf("trial %d: %+v, scan %+v", trial, got.recon, want.recon)
		}
		if trial == 0 && (got.recon.Unmatched != 1 || got.recon.Reordered != 1) {
			t.Fatalf("at the bound: %+v, want one dequeue past it and one within", got.recon)
		}
		addRecon(&total, got.recon, +1)
	}
	if total.Reordered == 0 || total.LookaheadFix == 0 || total.DupCollisions == 0 || total.Unmatched == 0 {
		t.Fatalf("a side channel went untested: %+v", total)
	}
}

package tracestore

import (
	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// Journey is one reconstructed packet trace: where the packet went and when
// it was enqueued, read, and emitted at every component.
type Journey struct {
	// IPID identifies the packet within the collision-resolution window.
	IPID uint16
	// Tuple is known only for delivered packets (five-tuples are
	// recorded at egress, §5).
	Tuple    packet.FiveTuple
	HasTuple bool
	// EmittedAt is the source write time.
	EmittedAt simtime.Time
	// Hops lists traversed NFs in order. The slice is a [start,end) span
	// of the store's shared hop arena (columnar layout), not an
	// individually allocated list; callers must not append to it.
	Hops []JourneyHop
	// Delivered reports whether the packet reached egress within the
	// trace. False means dropped in transit or still resident at trace
	// end.
	Delivered bool
	// Quarantined marks a journey threaded through at least one
	// ambiguous queue match (duplicate-IPID collision none of the side
	// channels could break); its hops past that point are a guess and
	// diagnosis should not treat its fate as evidence.
	Quarantined bool
}

// JourneyHop is one reconstructed traversal.
type JourneyHop struct {
	Comp     CompID
	ArriveAt simtime.Time // upstream write into this comp's queue
	ReadAt   simtime.Time // dequeue time (zero if never read)
	DepartAt simtime.Time // this comp's write/deliver time (zero if none)
	// ReadEvent is the dequeuing batch's stream-absolute index into
	// CompView.Reads (Store.HopRead resolves it), -1 when the packet was
	// never read.
	ReadEvent int
	// Arrival is this hop's stream-absolute index into CompView.Arrivals
	// (Store.HopArrival resolves it).
	Arrival int
}

// Row references between a store's tables — Arrival.Journey,
// JourneyHop.Arrival/ReadEvent, ReadEvent.FirstEntry and a QueuingPeriod's
// arrival range — are stream-absolute: they count rows since the table
// was last emptied, not positions in the slices as they stand. For every
// store but a stream's window store the two are the same. A window store
// drops rows from the front of its tables as the window slides, and the
// references into the rows that stay keep their values; the accessors
// below subtract how many rows have left.

// FirstJourney returns the stream-absolute index of Journeys[0]. Journey
// indices handed out with results (Victim.Journey, CulpritJourneys) index
// Journeys directly; Arrival.Journey is FirstJourney() higher.
func (s *Store) FirstJourney() int { return s.firstJourney }

// JourneyAt resolves an Arrival.Journey reference, nil when the arrival
// was never linked or the journey is not in the store.
func (s *Store) JourneyAt(ref int) *Journey {
	i := ref - s.firstJourney
	if ref < 0 || i < 0 || i >= len(s.Journeys) {
		return nil
	}
	return &s.Journeys[i]
}

// HopArrival returns the arrival row behind a journey hop.
func (s *Store) HopArrival(hop *JourneyHop) *Arrival {
	v := s.views[hop.Comp]
	return &v.Arrivals[hop.Arrival-v.firstArrival]
}

// HopRead returns the read event that dequeued a journey hop, nil when the
// packet was never read.
func (s *Store) HopRead(hop *JourneyHop) *ReadEvent {
	if hop.ReadEvent < 0 {
		return nil
	}
	v := s.views[hop.Comp]
	return &v.Reads[hop.ReadEvent-v.firstRead]
}

// LastCompID returns the last component the packet was observed at
// (NoComp for an empty journey).
func (j *Journey) LastCompID() CompID {
	if len(j.Hops) == 0 {
		return NoComp
	}
	return j.Hops[len(j.Hops)-1].Comp
}

// HopAtID returns the hop at the interned component, or nil.
func (j *Journey) HopAtID(comp CompID) *JourneyHop {
	if comp == NoComp {
		return nil
	}
	for i := range j.Hops {
		if j.Hops[i].Comp == comp {
			return &j.Hops[i]
		}
	}
	return nil
}

// Latency returns delivery latency, or -1 if not delivered.
func (j *Journey) Latency() simtime.Duration {
	if !j.Delivered || len(j.Hops) == 0 {
		return -1
	}
	return j.Hops[len(j.Hops)-1].DepartAt.Sub(j.EmittedAt)
}

// lookaheadDepth is how many future dequeue entries the order side channel
// inspects when several upstream heads share an IPID.
const lookaheadDepth = 4

// reorderSearchBound caps the out-of-order search window used when no
// upstream head matches (same-instant write interleaving).
const reorderSearchBound = 64

// reconstruct matches records across components and builds journeys, from
// the tables build left in sc.
func (s *Store) reconstruct(sc *scratch) {
	s.indexReads(sc)
	for _, v := range s.views {
		s.matchQueue(sc, v)
		s.threadInternal(sc, v)
	}
	s.buildJourneys(sc)
}

// indexReads sizes the per-component match tables.
func (s *Store) indexReads(sc *scratch) {
	n := len(s.views)
	sc.deqOfArrival = resize(sc.deqOfArrival, n)
	sc.outOfRead = resize(sc.outOfRead, n)
	sc.upSlot = resize(sc.upSlot, n)
	nArr, nReadPk := 0, 0
	for _, v := range s.views {
		nArr += len(v.Arrivals)
		nReadPk += len(sc.views[v.ID].reads)
	}
	sc.arrIdx = fillNeg(resize(sc.arrIdx, nArr))
	sc.readIdx = fillNeg(resize(sc.readIdx, nReadPk))
	arrIdx, readIdx := sc.arrIdx, sc.readIdx
	for _, v := range s.views {
		na, nr := len(v.Arrivals), len(sc.views[v.ID].reads)
		sc.deqOfArrival[v.ID], arrIdx = arrIdx[:na], arrIdx[na:]
		sc.outOfRead[v.ID], readIdx = readIdx[:nr], readIdx[nr:]
	}
}

func fillNeg(out []int32) []int32 {
	for i := range out {
		out[i] = -1
	}
	return out
}

// head is what matching reads of an upstream stream's first unconsumed
// arrival: its index (-1 once the stream is used up), time and IPID.
type head struct {
	at   simtime.Time
	ai   int32
	ipid uint16
}

// matchQueue resolves which arrival each dequeued packet corresponds to,
// using the three side channels of §5.
func (s *Store) matchQueue(sc *scratch, v *CompView) {
	reads := sc.views[v.ID].reads
	if len(reads) == 0 || len(v.Arrivals) == 0 {
		return
	}
	// Per-upstream arrival streams, in first-appearance order of the
	// upstream: count, carve streamIdx, fill.
	for i := range sc.upSlot {
		sc.upSlot[i] = -1
	}
	ptr := sc.ptr[:0] // per-stream arrival counts first, heads afterwards
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
	sc.ptr = ptr
	sc.streamIdx = resize(sc.streamIdx, len(v.Arrivals))
	sc.skipIdx = resize(sc.skipIdx, len(v.Arrivals))
	clear(sc.skipIdx)
	streams := resize(sc.streams, len(ptr))
	skips := resize(sc.skips, len(ptr))
	sc.streams, sc.skips = streams, skips
	rest, skipRest := sc.streamIdx, sc.skipIdx
	for k := range streams {
		streams[k], rest = carve(rest, ptr[k])
		skips[k], skipRest = skipRest[:ptr[k]], skipRest[ptr[k]:]
		ptr[k] = 0
	}
	sc.posOf = resize(sc.posOf, len(v.Arrivals))
	posOf := sc.posOf
	for ai := range v.Arrivals {
		k := sc.upSlot[v.Arrivals[ai].From]
		posOf[ai] = int32(len(streams[k]))
		streams[k] = append(streams[k], int32(ai))
	}
	deqMatch := sc.deqOfArrival[v.ID]

	// An arrival is consumed once a dequeue has taken it (deqMatch). next
	// returns the position of stream u's first unconsumed arrival at or
	// after p: skips[u][q] is 0 for an unconsumed arrival, and for a
	// consumed one how far on the next unconsumed one may be; each walk
	// points the positions it passed at where it ended, so a run of
	// consumed arrivals is crossed once, not by every search behind it.
	next := func(u, p int) int {
		sk := skips[u]
		q := p
		for q < len(sk) && sk[q] != 0 {
			q += int(sk[q])
		}
		for p < q {
			n := p + int(sk[p])
			sk[p] = int32(q - p)
			p = n
		}
		return q
	}

	// Every stream's head is kept at its first unconsumed arrival: a
	// stream moves only when its head is taken.
	sc.heads = resize(sc.heads, len(streams))
	heads := sc.heads
	advance := func(u int) {
		p := next(u, ptr[u])
		ptr[u] = p
		if p == len(streams[u]) {
			heads[u] = head{ai: -1}
			return
		}
		ai := streams[u][p]
		heads[u] = head{at: v.Arrivals[ai].At, ai: ai, ipid: v.Arrivals[ai].IPID}
	}
	for u := range streams {
		advance(u)
	}
	// The reorder search's per-IPID chains of arrivals, in time order, are
	// built the first time a dequeue needs the search: chain[ipid] − base
	// is the first arrival carrying ipid that may be unconsumed (stamps
	// below base are dead, see reserveIPIDs), chainNext[a] the one after
	// arrival a.
	var chain *[1 << 16]int32
	var base int32
	var chainNext []int32
	take := func(ai, k int) {
		deqMatch[ai] = int32(k)
		u := sc.upSlot[v.Arrivals[ai].From]
		skips[u][posOf[ai]] = 1
		if heads[u].ai == int32(ai) {
			advance(int(u))
		}
	}
	// search is the bounded reorder search for dequeue k: over each
	// upstream's first reorderSearchBound unconsumed arrivals, up to the
	// first one later than the dequeue or carrying its IPID, the earliest
	// arrival carrying the IPID (the earlier upstream on a tie), or -1. It
	// walks the IPID's chain instead of the upstreams: each upstream's
	// first unconsumed arrival with the IPID no later than the dequeue is
	// the one its scan would reach, if fewer than reorderSearchBound
	// unconsumed arrivals come before it.
	search := func(k int) int {
		d := &reads[k]
		if chain == nil {
			base = sc.reserveIPIDs(len(v.Arrivals))
			chain = sc.ipidHead
			sc.chainNext = resize(sc.chainNext, len(v.Arrivals))
			chainNext = sc.chainNext
			for ai := len(v.Arrivals) - 1; ai >= 0; ai-- {
				id := v.Arrivals[ai].IPID
				chainNext[ai] = -1
				if h := chain[id]; h >= base {
					chainNext[ai] = h - base
				}
				chain[id] = base + int32(ai)
			}
		}
		a := int32(-1)
		if h := chain[d.IPID]; h >= base {
			a = h - base
		}
		for a >= 0 && deqMatch[a] >= 0 { // consumed arrivals leave the front for good
			a = chainNext[a]
		}
		chain[d.IPID] = base + a // below base once the chain is used up
		best, bestU := -1, 0
		for ; a >= 0 && v.Arrivals[a].At <= d.At; a = chainNext[a] {
			if deqMatch[a] >= 0 {
				continue
			}
			u := int(sc.upSlot[v.Arrivals[a].From])
			// Count the unconsumed arrivals before a, up to the bound. A
			// later arrival of the same upstream is never nearer, nor
			// earlier, so it cannot displace this one.
			n, pa := 0, int(posOf[a])
			for p := ptr[u]; p < pa && n < reorderSearchBound; p = next(u, p+1) {
				n++
			}
			if n < reorderSearchBound && (best < 0 || v.Arrivals[a].At < v.Arrivals[best].At ||
				v.Arrivals[a].At == v.Arrivals[best].At && u < bestU) {
				best, bestU = int(a), u
			}
		}
		return best
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
				for p < len(streams[u]) && isTaken(int(streams[u][p])) {
					p = next(u, p+1)
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
		cands := sc.cands[:0] // arrival indices, at most one per upstream
		for u := range heads {
			if h := &heads[u]; h.ipid == d.IPID && h.ai >= 0 && h.at <= d.At {
				cands = append(cands, int(h.ai))
			}
		}
		sc.cands = cands
		switch {
		case len(cands) == 1:
			take(cands[0], k)
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
			take(best, k)
			s.recon.LookaheadFix++
		default:
			// No head matches: same-instant interleavings can put
			// the true arrival slightly deeper; search a bounded
			// window.
			best := search(k)
			if best >= 0 {
				take(best, k)
				s.recon.Reordered++
			} else {
				s.recon.Unmatched++
			}
		}
	}
}

// threadInternal links each component's read entries to its write/deliver
// entries by per-IPID FIFO order. The out entries are visited in the order
// a stable sort by time of (writes, then delivers) would give: both lists
// are already time-ordered, so that is their two-way merge with writes
// first on equal times.
func (s *Store) threadInternal(sc *scratch, v *CompView) {
	c := &sc.views[v.ID]
	reads, writes, delivers := c.reads, c.writes, c.delivers
	if len(reads) == 0 || len(writes)+len(delivers) == 0 {
		return
	}
	// Per-IPID FIFO of read entries, as chains through next. Built back to
	// front so every chain ends up in dequeue order.
	base := sc.reserveIPIDs(len(reads))
	head := sc.ipidHead
	sc.next = resize(sc.next, len(reads))
	next := sc.next
	for k := len(reads) - 1; k >= 0; k-- {
		id := reads[k].IPID
		next[k] = -1
		if h := head[id]; h >= base {
			next[k] = h - base
		}
		head[id] = base + int32(k)
	}
	outOfRead := sc.outOfRead[v.ID]
	for wi, di := 0, 0; wi < len(writes) || di < len(delivers); {
		var out *Entry
		var ref int32
		if di == len(delivers) || (wi < len(writes) && writes[wi].At <= delivers[di].At) {
			out, ref = &writes[wi], int32(wi)
			wi++
		} else {
			out, ref = &delivers[di], deliverRef(di)
			di++
		}
		// Reads precede writes of the same packet, so the FIFO head is
		// the match unless the streams are inconsistent.
		h := head[out.IPID]
		if h < base {
			continue
		}
		k := h - base
		if reads[k].At <= out.At {
			outOfRead[k] = ref
			head[out.IPID] = 0
			if next[k] >= 0 {
				head[out.IPID] = base + next[k]
			}
		}
	}
}

// buildJourneys threads packets from source emissions to egress. Hops are
// appended to one flat arena (capacity = total arrivals, an exact upper
// bound: every hop consumes one arrival) and each journey's Hops becomes a
// [start,end) span of it, so a million-packet trace costs one hop
// allocation instead of a million.
func (s *Store) buildJourneys(sc *scratch) {
	if s.ViewID(s.srcID) == nil {
		return
	}
	src := &sc.views[s.srcID]
	arena := resize(s.hopArena, len(s.arrivals))[:0]
	// Journeys are built sequentially, so span i is
	// [starts[i], starts[i+1]).
	starts := append(resize(sc.starts, len(src.writes)+1)[:0], 0)
	s.Journeys = resize(s.Journeys, len(src.writes))[:0]
	for wi := range src.writes {
		j := Journey{
			IPID:      src.writes[wi].IPID,
			EmittedAt: src.writes[wi].At,
		}
		comp, ai := src.dests[wi], int(src.writes[wi].Ref)
		for comp != NoComp {
			v, c := s.views[comp], &sc.views[comp]
			hop := JourneyHop{
				Comp:      comp,
				ArriveAt:  v.Arrivals[ai].At,
				ReadEvent: -1,
				Arrival:   ai,
			}
			jIdx := len(s.Journeys)
			v.Arrivals[ai].Journey = jIdx
			if v.Arrivals[ai].Quarantined {
				j.Quarantined = true
			}
			k := sc.deqOfArrival[comp][ai]
			if k < 0 {
				// Never read: resident at trace end or
				// overwritten; journey ends here.
				arena = append(arena, hop)
				break
			}
			hop.ReadAt = c.reads[k].At
			hop.ReadEvent = int(c.reads[k].Ref)
			out := sc.outOfRead[comp][k]
			if out == noOut {
				// Read but never emitted: dropped at a
				// downstream enqueue or in flight at trace end.
				arena = append(arena, hop)
				break
			}
			if out < noOut {
				di := deliverIndex(out)
				hop.DepartAt = c.delivers[di].At
				arena = append(arena, hop)
				j.Delivered = true
				j.Tuple = c.tuples[di]
				// A zero tuple is the damaged-record pad, not real
				// traffic: delivered, but with unknown five-tuple.
				j.HasTuple = j.Tuple != (packet.FiveTuple{})
				break
			}
			hop.DepartAt = c.writes[out].At
			arena = append(arena, hop)
			// Continue downstream.
			comp, ai = c.dests[out], int(c.writes[out].Ref)
		}
		starts = append(starts, int32(len(arena)))
		if j.Quarantined {
			s.recon.Quarantined++
		}
		s.Journeys = append(s.Journeys, j)
	}
	sc.starts = starts
	s.hopArena = arena
	// Fix the spans up after the walk: three-index subslices so an
	// accidental caller append cannot stomp a neighbouring journey.
	for i := range s.Journeys {
		s.Journeys[i].Hops = arena[starts[i]:starts[i+1]:starts[i+1]]
	}
}

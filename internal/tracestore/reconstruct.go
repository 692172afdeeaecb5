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

// indexReads sizes the per-component match tables and builds the
// read-entry→read-event index.
func (s *Store) indexReads(sc *scratch) {
	n := len(s.views)
	sc.deqOfArrival = resize(sc.deqOfArrival, n)
	sc.outOfRead = resize(sc.outOfRead, n)
	sc.readEventIdx = resize(sc.readEventIdx, n)
	sc.upSlot = resize(sc.upSlot, n)
	nArr, nReadPk := 0, 0
	for _, v := range s.views {
		nArr += len(v.Arrivals)
		nReadPk += len(sc.views[v.ID].reads)
	}
	sc.arrIdx = resize(sc.arrIdx, nArr)
	sc.readIdx = resize(sc.readIdx, 2*nReadPk)
	arrIdx, readIdx := sc.arrIdx, sc.readIdx
	for _, v := range s.views {
		na, nr := len(v.Arrivals), len(sc.views[v.ID].reads)
		sc.deqOfArrival[v.ID], arrIdx = fillNeg(arrIdx[:na]), arrIdx[na:]
		sc.outOfRead[v.ID], readIdx = fillNeg(readIdx[:nr]), readIdx[nr:]
		ev := readIdx[:nr]
		readIdx = readIdx[nr:]
		for ei := range v.Reads {
			end := nr
			if ei+1 < len(v.Reads) {
				end = v.Reads[ei+1].FirstEntry
			}
			for k := v.Reads[ei].FirstEntry; k < end; k++ {
				ev[k] = int32(ei)
			}
		}
		sc.readEventIdx[v.ID] = ev
	}
}

func fillNeg(out []int32) []int32 {
	for i := range out {
		out[i] = -1
	}
	return out
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
	streams := resize(sc.streams, len(ptr))
	sc.streams = streams
	rest := sc.streamIdx
	for k := range streams {
		streams[k], rest = carve(rest, ptr[k])
		ptr[k] = 0
	}
	for ai := range v.Arrivals {
		k := sc.upSlot[v.Arrivals[ai].From]
		streams[k] = append(streams[k], int32(ai))
	}
	sc.consumed = resize(sc.consumed, len(v.Arrivals))
	consumed := sc.consumed
	clear(consumed)
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
		cands := sc.cands[:0] // arrival indices, at most one per upstream
		for u := range streams {
			ai := advance(u)
			if ai >= 0 && v.Arrivals[ai].At <= d.At && v.Arrivals[ai].IPID == d.IPID {
				cands = append(cands, ai)
			}
		}
		sc.cands = cands
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
		comp := src.dests[wi]
		// Arrival index of this write entry at its destination.
		ai := sc.arrivalIndexOf(src, wi)
		for ai >= 0 && comp != NoComp {
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
			hop.ReadEvent = int(sc.readEventIdx[comp][k])
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
			comp = c.dests[out]
			ai = sc.arrivalIndexOf(c, int(out))
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

// arrivalIndexOf maps a component's write entry to the arrival index at the
// destination view. Arrivals of one write record are contiguous at the
// destination, so the record's base index plus the batch position suffices.
func (sc *scratch) arrivalIndexOf(c *viewScratch, wi int) int {
	base := sc.arrBase[c.writes[wi].Rec]
	if base < 0 {
		return -1
	}
	return int(base) + c.writes[wi].Pos
}

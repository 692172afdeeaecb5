package tracestore

import (
	"math"

	"microscope/internal/packet"
)

// scratch holds every table a store is made through but does not keep
// (derive: build, reconstruct, summarize). A cold Build allocates one and
// drops it with derive's return; a Stream owns one for its lifetime and
// seals every segment through it, so steady-state sealing allocates
// nothing here. Each use sizes what it needs (resize) and fully rewrites
// what it reads, so nothing carries over from one store to the next — not
// even after a contained panic mid-seal.
type scratch struct {
	// Build. recComp/recDest hand each record's interned component and
	// write destination from the count pass to the fill pass (a store
	// built from records; buildFrames looks them up again). views are
	// the per-component tables by CompID, spans of entries, dests and
	// tuples.
	recComp []CompID
	recDest []CompID
	views   []viewScratch
	entries []Entry
	dests   []CompID
	tuples  []packet.FiveTuple

	// reconstruct, indexed by CompID; the inner slices are spans of
	// arrIdx and readIdx.
	//
	// deqOfArrival[comp][arrival] is the read entry that dequeued the
	// arrival, or -1. outOfRead[comp][readEntry] is what the packet left
	// as (see noOut).
	deqOfArrival [][]int32
	outOfRead    [][]int32
	arrIdx       []int32
	readIdx      []int32

	// matchQueue: upSlot maps an upstream CompID to its stream; streams[k]
	// lists, in order, the arrival indices written by upstream k (spans of
	// streamIdx), and posOf[arrival] is the arrival's position in its
	// stream; skips[k] (spans of skipIdx) leads past stream k's consumed
	// arrivals; ptr[k] is stream k's first unconsumed arrival and heads[k]
	// a copy of what matching reads of it; cands collects the heads
	// matching one dequeue.
	upSlot    []int32
	streams   [][]int32
	streamIdx []int32
	posOf     []int32
	skips     [][]int32
	skipIdx   []int32
	ptr       []int
	heads     []head
	cands     []int
	// chainNext links a view's arrivals carrying one IPID, for the reorder
	// search (matchQueue), whose chain heads live in ipidHead.
	chainNext []int32

	// summarize: the delivered latencies, and sortInts' second buffer.
	lats, latsTmp []int64

	// threadInternal's per-IPID FIFOs of read entries: ipidHead[ipid] is
	// the first unconsumed read entry carrying that IPID, next[k] the one
	// after read entry k. Heads are stored offset by a base that only
	// grows (reserveIPIDs), so entries left by an earlier view, store or
	// use (matchQueue's arrival chains share the table) are recognisably
	// dead and the 64 Ki table is never cleared between uses.
	ipidHead *[1 << 16]int32
	ipidNext int32
	next     []int32

	// buildJourneys: journey i's hops are arena[starts[i]:starts[i+1]].
	starts []int32
}

// viewScratch is one component's build-only tables: its per-packet read
// entries in dequeue order, its write entries in transmit order (merged
// across destination queues by record order) with their interned
// destinations in dests, and its deliver entries with their five-tuples in
// tuples. The n* fields are build's count pass: how many read events,
// read/write/deliver packet entries and arrivals the component is about
// to hold, so that every table is carved at its exact size.
type viewScratch struct {
	reads, writes, delivers []Entry
	dests                   []CompID
	tuples                  []packet.FiveTuple

	nReads, nReadPk, nWritePk, nDeliverPk, nArrivals int
}

// view returns component id's tables, first extending the list, zeroed,
// to reach it.
func (sc *scratch) view(id CompID) *viewScratch {
	for int(id) >= len(sc.views) {
		sc.views = append(sc.views, viewScratch{})
	}
	return &sc.views[id]
}

// outOfRead values: a write entry index (>= 0), a deliver entry encoded by
// deliverRef (<= -2), or noOut when the packet was read but never emitted.
const noOut int32 = -1

func deliverRef(i int) int32   { return -2 - int32(i) }
func deliverIndex(r int32) int { return int(-2 - r) }

// reserveIPIDs claims n consecutive head stamps and returns the first: a
// live ipidHead entry for read entry k is base+k, and every stamp written
// before this call is below base.
func (sc *scratch) reserveIPIDs(n int) (base int32) {
	if sc.ipidHead == nil {
		sc.ipidHead = new([1 << 16]int32)
		sc.ipidNext = 1
	}
	if int64(sc.ipidNext)+int64(n) > math.MaxInt32 {
		clear(sc.ipidHead[:])
		sc.ipidNext = 1
	}
	base = sc.ipidNext
	sc.ipidNext += int32(n)
	return base
}

// resize returns buf with length n, reallocating only when its capacity
// falls short. The contents are unspecified: callers overwrite them.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// carve cuts an empty span of capacity n off the front of slab, to be
// filled by append without ever growing (nil when n is 0).
func carve[T any](slab []T, n int) (span, rest []T) {
	if n == 0 {
		return nil, slab
	}
	return slab[:0:n], slab[n:]
}

package core

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// Every victim's queuing period at an NF is a prefix [ArrivalFirst, t] of
// one busy period, and the memo caches its answers per prefix: many victims
// of one overload episode ask for different prefixes of the same busy
// period. busyWalk walks a busy period's arrivals once, lazily, as far as
// the longest prefix asked for so far. The walk keeps, per upstream path,
// its members in arrival order and running per-hop bounds after each
// member, so collectPaths answers any prefix in O(paths × hops), and
// periodJourneys answers it as a prefix of one journey list.
//
// The table lives in the memo (memo.go), so it sees one store, or one
// window of a stream's window store, under the engine's queue threshold:
// single-victim calls on one store share it, and CarryMemo starts the
// next window with an empty one, so a window walks only its own arrivals.
// Answers share the walk's journey arrays, which are append-only, so an
// answer the memo keeps never changes after it is handed out.

// walkKey identifies a busy period: its component and the stream-absolute
// index of its first arrival. For a fixed store the prefixes with the same
// key are prefixes of the same arrival sequence.
type walkKey struct {
	comp  tracestore.CompID
	first int
}

// walkTable holds the busy-period walks of one memo. mu guards m only;
// each walk has its own lock.
type walkTable struct {
	mu sync.Mutex
	m  map[walkKey]*busyWalk
}

// get returns the walk of a busy period, creating an empty one.
func (t *walkTable) get(k walkKey) *busyWalk {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.m[k]
	if w == nil {
		if t.m == nil {
			t.m = make(map[walkKey]*busyWalk)
		}
		w = &busyWalk{}
		t.m[k] = w
	}
	return w
}

// reset forgets every walk.
func (t *walkTable) reset() {
	t.mu.Lock()
	t.m = nil
	t.mu.Unlock()
}

// busyWalk is one busy period walked so far. mu guards every field;
// answers handed out alias its journey lists and stay valid because the
// walk only ever appends past what an answer covers.
type busyWalk struct {
	mu sync.Mutex

	// n is how many arrivals the path walk has visited; paths are in key
	// order, each with its first member among the first n arrivals.
	n     int
	paths []*walkPath
	//mslint:allow compid the key is a byte-encoded CompID sequence (allocation-free lookup), not a component name
	byKey map[string]*walkPath

	// journeys lists the linked journeys (Journey >= 0) of the first
	// len(upTo) arrivals in arrival order; upTo[i] is how many of them
	// the first i+1 arrivals hold.
	journeys []int
	upTo     []int32
}

// walkPath is one upstream path of a busy period: its members in arrival
// order and, after each member, the running bounds over the members so
// far.
type walkPath struct {
	// key is the path's encoding (big-endian CompID bytes): its order is
	// the order of the CompID sequences.
	key   string
	comps []tracestore.CompID // comps[0] is the source
	// members[m] and journeys[m] are member m's.
	members  []walkMember
	journeys []int
	// bounds row m, 4 values per component from 4*m*len(comps), bounds
	// members 0..m: departure min and max, arrival min and max.
	bounds []simtime.Time
}

// walkMember is one member of a path: its index in the walk, and the
// bounds of members 0..m's arrivals at the busy period's NF.
type walkMember struct {
	at         int32
	fMin, fMax simtime.Time
}

// walkOf returns the walk of qp's busy period at f.
func (d *diagnoser) walkOf(f tracestore.CompID, qp *tracestore.QueuingPeriod) *busyWalk {
	return d.memo.walks.get(walkKey{comp: f, first: qp.ArrivalFirst})
}

// pathsOf groups the first len(arrivals) arrivals of the busy period by
// upstream path, walking only the arrivals no earlier call has and
// counting them to d's run. arrivals is the prefix itself
// (Store.PeriodArrivals).
func (w *busyWalk) pathsOf(d *diagnoser, f tracestore.CompID, arrivals []tracestore.Arrival, cs *collectScratch) []pathStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(arrivals) - w.n; n > 0 {
		d.walkedN.Add(int64(n))
	}
	for ; w.n < len(arrivals); w.n++ {
		arr := &arrivals[w.n]
		j := d.st.JourneyAt(arr.Journey)
		if j == nil {
			continue
		}
		// Upstream path: source plus the journey's hops before f.
		cs.comps = append(cs.comps[:0], d.src)
		cs.departs = append(cs.departs[:0], j.EmittedAt)
		cs.arrives = append(cs.arrives[:0], j.EmittedAt)
		for h := range j.Hops {
			if j.Hops[h].Comp == f {
				break
			}
			cs.comps = append(cs.comps, j.Hops[h].Comp)
			cs.departs = append(cs.departs, j.Hops[h].DepartAt)
			cs.arrives = append(cs.arrives, j.Hops[h].ArriveAt)
		}
		cs.key = cs.key[:0]
		for _, c := range cs.comps {
			cs.key = append(cs.key, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
		}
		// map[string(bytes)] compiles to a no-allocation lookup; the key
		// string is materialized only when a new path appears.
		p := w.byKey[string(cs.key)]
		if p == nil {
			// Room for the rest of this extension, up to a bound: most
			// busy periods have few paths.
			c, h := min(len(arrivals)-w.n, 32), len(cs.comps)
			p = &walkPath{
				key: string(cs.key), comps: slices.Clone(cs.comps),
				members:  make([]walkMember, 0, c),
				journeys: make([]int, 0, c),
				bounds:   make([]simtime.Time, 0, 4*h*c),
			}
			if w.byKey == nil {
				//mslint:allow compid the key is a byte-encoded CompID sequence, not a component name
				w.byKey = make(map[string]*walkPath)
			}
			w.byKey[p.key] = p
			i, _ := slices.BinarySearchFunc(w.paths, p.key, func(q *walkPath, k string) int {
				return strings.Compare(q.key, k)
			})
			w.paths = slices.Insert(w.paths, i, p)
		}
		p.add(w.n, arr.Journey, cs.departs, cs.arrives, arr.At)
	}

	m := int32(len(arrivals))
	k, hops := 0, 0
	for _, p := range w.paths {
		if p.members[0].at < m {
			k, hops = k+1, hops+len(p.comps)
		}
	}
	if k == 0 {
		return nil
	}
	out := make([]pathStats, 0, k)
	spans := make([]simtime.Duration, hops)
	arrives := make([]simtime.Time, 2*hops)
	for _, p := range w.paths {
		if p.members[0].at >= m {
			continue
		}
		h := len(p.comps)
		out = append(out, pathStats{spans: spans[:h:h], firstArrive: arrives[:h:h], lastArrive: arrives[h : 2*h : 2*h]})
		p.prefix(&out[len(out)-1], m)
		spans, arrives = spans[h:], arrives[2*h:]
	}
	return out
}

// journeysOf returns the linked journeys of the first len(arrivals)
// arrivals of the busy period, in arrival order, walking only the arrivals
// no earlier call has. Callers treat the result as read-only.
func (w *busyWalk) journeysOf(arrivals []tracestore.Arrival) []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := len(w.upTo); i < len(arrivals); i++ {
		if arrivals[i].Journey >= 0 {
			w.journeys = append(w.journeys, arrivals[i].Journey)
		}
		w.upTo = append(w.upTo, int32(len(w.journeys)))
	}
	n := w.upTo[len(arrivals)-1]
	if n == 0 {
		return nil
	}
	return w.journeys[:n:n]
}

// add appends the member at walk index i: its journey, and a new row of
// bounds folding in its per-component depart and arrive times and its
// arrival at the busy period's NF.
func (p *walkPath) add(i, journey int, departs, arrives []simtime.Time, arriveAtF simtime.Time) {
	h, m := len(p.comps), len(p.members)
	last := walkMember{fMin: simtime.Never, fMax: -1}
	if m > 0 {
		last = p.members[m-1]
	}
	p.members = append(p.members, walkMember{at: int32(i), fMin: min(last.fMin, arriveAtF), fMax: max(last.fMax, arriveAtF)})
	p.journeys = append(p.journeys, journey)
	for c := 0; c < h; c++ {
		dMin, dMax := simtime.Never, simtime.Time(-1)
		aMin, aMax := simtime.Never, simtime.Time(-1)
		if m > 0 {
			r := p.bounds[4*((m-1)*h+c):]
			dMin, dMax, aMin, aMax = r[0], r[1], r[2], r[3]
		}
		p.bounds = append(p.bounds, min(dMin, departs[c]), max(dMax, departs[c]), min(aMin, arrives[c]), max(aMax, arrives[c]))
	}
}

// prefix fills ps, whose spans and arrival bounds the caller has sized,
// with the path's members among the first m arrivals. The journeys alias
// the walk's (capacity-clipped, so no caller can append into them); the
// bounds are copied, so an answer the memo keeps does not hold the walk's
// rows alive.
func (p *walkPath) prefix(ps *pathStats, m int32) {
	n, _ := slices.BinarySearchFunc(p.members, m, func(mb walkMember, at int32) int { return cmp.Compare(mb.at, at) })
	h := len(p.comps)
	ps.comps = p.comps
	ps.n = n
	ps.journeys = p.journeys[:n:n]
	row := p.bounds[4*(n-1)*h : 4*n*h]
	for c := range h {
		r := row[4*c:]
		ps.spans[c] = 0
		if r[1] >= 0 {
			ps.spans[c] = r[1].Sub(r[0])
		}
		ps.firstArrive[c], ps.lastArrive[c] = r[2], r[3]
	}
	if last := p.members[n-1]; last.fMax >= 0 {
		ps.lastSpan = last.fMax.Sub(last.fMin)
	}
}

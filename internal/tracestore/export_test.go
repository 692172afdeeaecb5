package tracestore

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"microscope/internal/simtime"
	"microscope/internal/stats"
)

// Test-only doors into the stream's window store, for the external tests in
// window_test.go (which also drive the pipeline and so cannot live in this
// package).

// SetAppendHook makes fn run half-way through every window-store append:
// after a segment's journeys and hops are in, before its arrivals, reads
// and summaries are.
func (s *Stream) SetAppendHook(fn func()) { s.win.appendHook = fn }

// WindowCapRatio returns the largest capacity-to-live-rows ratio over the
// window store's columns that hold at least minRows rows.
func (s *Stream) WindowCapRatio(minRows int) float64 {
	worst := 0.0
	note := func(live, capacity int) {
		if live >= minRows {
			if r := float64(capacity) / float64(live); r > worst {
				worst = r
			}
		}
	}
	w := &s.win
	note(w.journeys.len(), cap(w.journeys.buf))
	note(w.hops.len(), cap(w.hops.buf))
	for i := range w.views {
		vc := &w.views[i]
		note(vc.arrivals.len(), cap(vc.arrivals.buf))
		note(vc.reads.len(), cap(vc.reads.buf))
	}
	return worst
}

// VerifyWindow checks the window store Window last returned two ways.
// Its summaries must be what scanning its live rows gives (checkByScan),
// and it must equal the other way to assemble it: a fresh window store
// with every retained segment appended. The two must agree in every field
// of window, Store, CompView and periodIndex — reached by reflection, so a
// field added later is compared without anyone remembering to — in lengths
// and values, not capacities. Row references are compared after moving the
// fresh store's (which count from zero) onto the in-place store's bases.
// It also checks what value equality cannot see: that every journey's Hops
// is the right span of the live hop column, and that every row reference
// resolves to the row it was made for.
func VerifyWindow(s *Stream) error {
	w := &s.win
	if !w.valid {
		return fmt.Errorf("window store is marked invalid")
	}
	if s.applied != len(s.segs) || len(s.dropped) != 0 {
		return fmt.Errorf("window store is behind the stream: %d of %d segments applied, %d drops pending",
			s.applied, len(s.segs), len(s.dropped))
	}
	if err := checkReferences(w); err != nil {
		return fmt.Errorf("in-place store: %w", err)
	}

	if err := checkByScan(&w.st); err != nil {
		return fmt.Errorf("in-place store: %w", err)
	}

	ref := &window{}
	ref.reset(s.meta, s.thr)
	var traceEnd simtime.Time
	for _, g := range s.segs {
		ref.append(g.st)
		traceEnd = max(traceEnd, g.st.traceEnd)
	}
	ref.publish(traceEnd)
	ref.valid = true
	if err := checkReferences(ref); err != nil {
		return fmt.Errorf("fresh store: %w", err)
	}
	if len(ref.st.views) != len(w.st.views) {
		return fmt.Errorf("in-place store interns %v, a fresh one %v", w.st.names, ref.st.names)
	}
	rebase(ref, w)
	// The generation counts windows handed out, which a fresh store has
	// not been.
	ref.st.gen = w.st.gen
	c := comparer{seen: make(map[[2]uintptr]bool)}
	c.equal(reflect.ValueOf(w).Elem(), reflect.ValueOf(ref).Elem())
	if len(c.diffs) > 0 {
		return fmt.Errorf("in-place window store differs from a fresh assembly in %d places, first: %v", len(c.diffs), c.diffs[:min(len(c.diffs), 8)])
	}
	return nil
}

// checkByScan holds a store's summaries to what the definitions give over
// its live rows, computed here by scanning and sharing nothing with
// summarize or with the window store's add and drop: per-component
// queue-delay moments over every hop that was read or left,
// delivered-latency percentiles and the latest departure. Its queuing
// periods are held to theirs by TestWindowQueuingPeriodMatchesScan.
func checkByScan(st *Store) error {
	moments := make([]stats.Moments, st.NumComps())
	var lat []float64
	var end simtime.Time
	for i := range st.Journeys {
		j := &st.Journeys[i]
		for _, hop := range j.Hops {
			if hop.ReadAt != 0 || hop.DepartAt != 0 {
				moments[hop.Comp].Add(int64(hop.ReadAt - hop.ArriveAt))
				end = max(end, hop.DepartAt)
			}
		}
		if j.Delivered {
			lat = append(lat, float64(j.Hops[len(j.Hops)-1].DepartAt-j.EmittedAt))
		}
	}
	sort.Float64s(lat)
	for id := range moments {
		want, got := &moments[id], st.DelayStatsID(CompID(id))
		if got == nil {
			got = &stats.Moments{}
		}
		if *got != *want {
			return fmt.Errorf("%s: delay moments %+v, a scan gives %+v", st.CompName(CompID(id)), *got, *want)
		}
	}
	for _, p := range []float64{50, 90, 99, 100} {
		if got, want := st.LatencyPercentile(p), stats.PercentileSorted(lat, p); got != want {
			return fmt.Errorf("p%v latency %v, a scan gives %v", p, got, want)
		}
	}
	if got := st.TraceEnd(); got != end {
		return fmt.Errorf("trace end %d, a scan gives %d", got, end)
	}
	return nil
}

// rebase moves ref's row references (which count from a freshly emptied
// store) onto w's bases. Both count packets read from when their columns
// were emptied, so the difference of their totals is the base.
func rebase(ref, w *window) {
	dj := w.st.firstJourney
	ref.st.firstJourney += dj
	n := len(ref.st.views)
	da, dr, de := make([]int, n), make([]int, n), make([]int, n)
	for id, mv := range ref.st.views {
		wv := w.st.views[id]
		da[id], dr[id] = wv.firstArrival, wv.firstRead
		de[id] = w.views[id].entries - ref.views[id].entries
		ref.views[id].entries += de[id]
		mv.firstArrival += da[id]
		mv.firstRead += dr[id]
		for i := range mv.Arrivals {
			if mv.Arrivals[i].Journey >= 0 {
				mv.Arrivals[i].Journey += dj
			}
		}
		for i := range mv.Reads {
			mv.Reads[i].FirstEntry += de[id]
		}
	}
	hops := ref.hops.rows()
	for i := range hops {
		hops[i].Arrival += da[hops[i].Comp]
		if hops[i].ReadEvent >= 0 {
			hops[i].ReadEvent += dr[hops[i].Comp]
		}
	}
}

// checkReferences verifies the pointer and reference structure of a
// published window store.
func checkReferences(w *window) error {
	m := &w.st
	hops := w.hops.rows()
	pos := 0
	for i := range m.Journeys {
		j := &m.Journeys[i]
		if n := len(j.Hops); n > 0 {
			if pos+n > len(hops) || &j.Hops[0] != &hops[pos] {
				return fmt.Errorf("journey %d: Hops is not hops[%d:%d] of the live hop column", i, pos, pos+n)
			}
			pos += n
		}
		for h := range j.Hops {
			hop := &j.Hops[h]
			a := m.HopArrival(hop)
			if a.At != hop.ArriveAt || m.JourneyAt(a.Journey) != j {
				return fmt.Errorf("journey %d hop %d: arrival reference %d resolves to %+v", i, h, hop.Arrival, *a)
			}
			if r := m.HopRead(hop); r != nil && r.At != hop.ReadAt {
				return fmt.Errorf("journey %d hop %d: read reference %d resolves to %+v", i, h, hop.ReadEvent, *r)
			}
		}
	}
	if pos != len(hops) {
		return fmt.Errorf("%d live hops, journeys account for %d", len(hops), pos)
	}
	for id, mv := range m.views {
		// Each read's packets start where the previous read's end, and
		// the last read's end where the column's count stands.
		next := w.views[id].entries
		for i := len(mv.Reads) - 1; i >= 0; i-- {
			r := &mv.Reads[i]
			if r.FirstEntry+r.N != next {
				return fmt.Errorf("%s read %d: FirstEntry %d N %d, the next packet is %d", mv.Name, i, r.FirstEntry, r.N, next)
			}
			next = r.FirstEntry
		}
		for i, a := range mv.Arrivals {
			if a.Journey >= 0 && m.JourneyAt(a.Journey) == nil {
				return fmt.Errorf("%s arrival %d: journey reference %d resolves to nothing", mv.Name, i, a.Journey)
			}
		}
	}
	return nil
}

// comparer walks two values in step and records where they differ.
type comparer struct {
	seen map[[2]uintptr]bool
	// path is where the walk stands: field names, ints for slice indices,
	// map keys. It is rendered only when a difference is recorded.
	path  []any
	diffs []string
}

// notCompared are the window fields that are not part of the store's
// state: the per-append scratch (overwritten by every append, and holding
// pre-rebase references in the fresh store) and the test hook. Everything
// else is compared.
var notCompared = map[string]bool{
	"land": true, "appendHook": true,
}

func (c *comparer) diff(format string, args ...any) {
	where := "window"
	for _, p := range c.path {
		if name, ok := p.(string); ok {
			where += "." + name
		} else {
			where += fmt.Sprintf("[%v]", p)
		}
	}
	c.diffs = append(c.diffs, where+": "+fmt.Sprintf(format, args...))
}

// at compares a and b one step further down the path.
func (c *comparer) at(step any, a, b reflect.Value) {
	c.path = append(c.path, step)
	c.equal(a, b)
	c.path = c.path[:len(c.path)-1]
}

func (c *comparer) equal(a, b reflect.Value) {
	if len(c.diffs) > 64 {
		return
	}
	switch a.Type() {
	case reflect.TypeOf((*sync.Mutex)(nil)).Elem():
		return
	}
	switch a.Kind() {
	case reflect.Struct:
		if _, isCol := a.Type().FieldByName("head"); isCol && a.NumField() == 2 {
			// A column: its live rows.
			ah, bh := int(a.FieldByName("head").Int()), int(b.FieldByName("head").Int())
			ab, bb := a.FieldByName("buf"), b.FieldByName("buf")
			c.equal(ab.Slice(ah, ab.Len()), bb.Slice(bh, bb.Len()))
			return
		}
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if len(c.path) == 0 && notCompared[name] {
				continue
			}
			c.at(name, a.Field(i), b.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				c.diff("nil against non-nil")
			}
			return
		}
		if a.Kind() == reflect.Pointer {
			key := [2]uintptr{a.Pointer(), b.Pointer()}
			if c.seen[key] {
				return
			}
			c.seen[key] = true
		}
		c.equal(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			c.diff("%d rows against %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			c.at(i, a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			c.diff("%d keys against %d", a.Len(), b.Len())
			return
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				c.diff("key %v missing", it.Key())
				continue
			}
			c.at(it.Key(), it.Value(), bv)
		}
	case reflect.Func:
		if !a.IsNil() || !b.IsNil() {
			c.diff("func field is set")
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			c.diff("%v against %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			c.diff("%d against %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			c.diff("%d against %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			c.diff("%v against %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			c.diff("%q against %q", a.String(), b.String())
		}
	default:
		c.diff("kind %v is not compared: teach comparer about it", a.Kind())
	}
}

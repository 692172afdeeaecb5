package tracestore

import (
	"unsafe"

	"microscope/internal/simtime"
)

// CompID is a dense interned handle for a component name. IDs are assigned
// at Build in a deterministic order (declared meta components first, then
// first appearance in record order), so rebuilding a store over the same
// trace yields the same name↔ID mapping. Hot paths index slices by CompID
// instead of hashing strings; names reappear only at report/render
// boundaries via CompName.
type CompID int32

// NoComp is the sentinel for "no component" (unknown name, no write
// destination, the virtual hop above the source).
const NoComp CompID = -1

// CompIDOf returns the interned ID for a component name, or NoComp when the
// name never appeared in the trace (neither declared nor recorded).
func (s *Store) CompIDOf(name string) CompID {
	if id, ok := s.byName[name]; ok {
		return id
	}
	return NoComp
}

// CompName returns the name for an interned ID ("" for NoComp or an
// out-of-range ID).
func (s *Store) CompName(id CompID) string {
	if id < 0 || int(id) >= len(s.names) {
		return ""
	}
	return s.names[id]
}

// NumComps returns the number of interned components; valid CompIDs are
// [0, NumComps).
func (s *Store) NumComps() int { return len(s.views) }

// SourceID returns the traffic source's CompID, or NoComp when the trace has
// no source component.
func (s *Store) SourceID() CompID { return s.srcID }

// ViewID returns the per-component index for an interned ID, or nil.
func (s *Store) ViewID(id CompID) *CompView {
	if id < 0 || int(id) >= len(s.views) {
		return nil
	}
	return s.views[id]
}

// PeakRateID returns r_i for an interned component (0 for the source,
// unknown IDs, or components without measured rates).
func (s *Store) PeakRateID(id CompID) simtime.Rate {
	if id < 0 || int(id) >= len(s.peaks) {
		return 0
	}
	return s.peaks[id]
}

// KindOfID returns the component kind for an interned ID, defaulting to the
// component name ("" for NoComp).
func (s *Store) KindOfID(id CompID) string {
	if id < 0 || int(id) >= len(s.kinds) {
		return ""
	}
	return s.kinds[id]
}

// DownstreamsID returns the interned downstream adjacency of a component
// (deployment-graph edge targets, in edge order). The returned slice is
// shared and must not be mutated.
func (s *Store) DownstreamsID(id CompID) []CompID {
	if id < 0 || int(id) >= len(s.downs) {
		return nil
	}
	return s.downs[id]
}

// nameMemo is a small open-addressing table in front of the interner for
// build's per-record lookups, keyed by the identity of a name's bytes
// instead of their hash: the records decoded from one body share that
// body's component and queue strings, and the records a simulator collects
// share its NFs'. An entry holds its string, so while it is cached those
// bytes cannot be freed and reused for a different string. An empty name
// is never cached, and a full table is emptied before the next insert.
type nameMemo struct {
	slots [1 << memoBits]memoEntry
	n     int
}

type memoEntry struct {
	name string // "" marks an empty slot
	id   CompID
}

// The table is kept at most a quarter full, so that a lookup seldom
// probes past the home slot: 64 names, the component and queue strings of
// two or three decoded bodies.
const (
	memoBits = 8
	memoCap  = 1 << memoBits / 4
)

// lookup returns name's entry and true, or the slot to cache it in (nil
// for an empty name) and false.
func (m *nameMemo) lookup(name string) (*memoEntry, bool) {
	if len(name) == 0 {
		return nil, false
	}
	p := unsafe.StringData(name)
	home := uint64(uintptr(unsafe.Pointer(p))) * 0x9E3779B97F4A7C15 >> (64 - memoBits) // Fibonacci hashing
	for i := home; ; i = (i + 1) % uint64(len(m.slots)) {
		e := &m.slots[i]
		if len(e.name) == 0 {
			if m.n == memoCap {
				*m = nameMemo{}
				e = &m.slots[home]
			}
			return e, false
		}
		if unsafe.StringData(e.name) == p && len(e.name) == len(name) {
			return e, true
		}
	}
}

// forget empties the table if it holds components from on, which the
// interner is about to drop (recycle).
func (m *nameMemo) forget(from CompID) {
	for i := range m.slots {
		if len(m.slots[i].name) > 0 && m.slots[i].id >= from {
			*m = nameMemo{}
			return
		}
	}
}

// remember caches name as id in the slot lookup returned.
func (m *nameMemo) remember(e *memoEntry, name string, id CompID) CompID {
	if e != nil {
		*e = memoEntry{name: name, id: id}
		m.n++
	}
	return id
}

// compID interns a record's component.
func (s *Store) compID(name string) CompID {
	e, ok := s.compMemo.lookup(name)
	if !ok {
		return s.compMemo.remember(e, name, s.view(name).ID)
	}
	return e.id
}

// queueID interns the component that consumes a write record's queue.
func (s *Store) queueID(queue string) CompID {
	e, ok := s.queueMemo.lookup(queue)
	if !ok {
		return s.queueMemo.remember(e, queue, s.view(consumerOf(queue)).ID)
	}
	return e.id
}

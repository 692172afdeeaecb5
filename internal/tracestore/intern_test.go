package tracestore

import (
	"testing"

	"microscope/internal/collector"
)

func internTrace() *collector.Trace {
	return &collector.Trace{
		Meta: twoUpstreamMeta(),
		Records: []collector.BatchRecord{
			{Comp: "u1", Queue: "c.in", At: 10, Dir: collector.DirWrite, IPIDs: []uint16{5}},
			{Comp: "u2", Queue: "c.in", At: 12, Dir: collector.DirWrite, IPIDs: []uint16{6}},
			{Comp: "c", Queue: "c.in", At: 20, Dir: collector.DirRead, IPIDs: []uint16{5, 6}},
		},
	}
}

func TestInternRoundTrip(t *testing.T) {
	st := Build(internTrace())
	comps := st.Components()
	if len(comps) == 0 {
		t.Fatal("no components")
	}
	for _, name := range comps {
		id := st.CompIDOf(name)
		if id == NoComp {
			t.Fatalf("component %q not interned", name)
		}
		if got := st.CompName(id); got != name {
			t.Fatalf("round trip %q -> %d -> %q", name, id, got)
		}
		if v := st.ViewID(id); v == nil || v.Name != name || v.ID != id {
			t.Fatalf("ViewID(%d) inconsistent for %q", id, name)
		}
	}
	if st.NumComps() != len(comps) {
		t.Errorf("NumComps %d vs Components %d", st.NumComps(), len(comps))
	}
}

// TestInternStableAcrossRebuilds: rebuilding a store over the same trace
// must assign identical CompIDs — declared meta components first (in
// declaration order), then undeclared ones in record order — so memo
// keys, arena spans, and CompID-keyed results are reproducible.
func TestInternStableAcrossRebuilds(t *testing.T) {
	a := Build(internTrace())
	b := Build(internTrace())
	if an, bn := a.NumComps(), b.NumComps(); an != bn {
		t.Fatalf("component counts differ: %d vs %d", an, bn)
	}
	for id := CompID(0); int(id) < a.NumComps(); id++ {
		if a.CompName(id) != b.CompName(id) {
			t.Fatalf("CompID %d names differ: %q vs %q", id, a.CompName(id), b.CompName(id))
		}
	}
	if a.SourceID() != b.SourceID() {
		t.Errorf("source IDs differ: %d vs %d", a.SourceID(), b.SourceID())
	}
	if a.SourceID() == NoComp {
		t.Error("declared source not interned")
	}
	// Declared meta components take the first IDs in declaration order.
	for i, cm := range internTrace().Meta.Components {
		if got := a.CompName(CompID(i)); got != cm.Name {
			t.Errorf("CompID %d = %q, want declared %q", i, got, cm.Name)
		}
	}
}

func TestInternUnknownNames(t *testing.T) {
	st := Build(internTrace())
	if id := st.CompIDOf("ghost"); id != NoComp {
		t.Errorf("unknown name interned: %d", id)
	}
	if name := st.CompName(NoComp); name != "" {
		t.Errorf("CompName(NoComp) = %q", name)
	}
	if name := st.CompName(CompID(st.NumComps())); name != "" {
		t.Errorf("out-of-range CompName = %q", name)
	}
	if v := st.ViewID(NoComp); v != nil {
		t.Error("ViewID(NoComp) not nil")
	}
	if r := st.PeakRateID(NoComp); r != 0 {
		t.Errorf("PeakRateID(NoComp) = %v", r)
	}
	if k := st.KindOfID(NoComp); k != "" {
		t.Errorf("KindOfID(NoComp) = %q", k)
	}
	if d := st.DownstreamsID(NoComp); d != nil {
		t.Errorf("DownstreamsID(NoComp) = %v", d)
	}
	// The string wrappers keep their historical lenient behaviour.
	if v := st.View("ghost"); v != nil {
		t.Error("View(ghost) not nil")
	}
	if k := st.KindOf("ghost"); k != "ghost" {
		t.Errorf("KindOf(ghost) = %q, want name fallback", k)
	}
}

// TestInternUndeclaredComponent: a component that appears only in records
// (never in meta) is still interned — after all declared components — and
// resolves consistently.
func TestInternUndeclaredComponent(t *testing.T) {
	tr := internTrace()
	tr.Records = append(tr.Records,
		collector.BatchRecord{Comp: "rogue", Queue: "x.in", At: 30, Dir: collector.DirWrite, IPIDs: []uint16{9}},
	)
	st := Build(tr)
	id := st.CompIDOf("rogue")
	if id == NoComp {
		t.Fatal("undeclared component not interned")
	}
	if int(id) < len(tr.Meta.Components) {
		t.Errorf("undeclared component ID %d collides with declared range", id)
	}
	if st.CompName(id) != "rogue" {
		t.Errorf("round trip: %q", st.CompName(id))
	}
	// Quarantined journeys (ambiguous matches) keep valid interned hops:
	// every hop Comp of every journey resolves to a non-empty name.
	for i := range st.Journeys {
		for _, h := range st.Journeys[i].Hops {
			if st.CompName(h.Comp) == "" {
				t.Fatalf("journey %d hop with unresolvable comp %d", i, h.Comp)
			}
		}
	}
}

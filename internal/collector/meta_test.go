package collector

import (
	"reflect"
	"strings"
	"testing"

	"microscope/internal/nfsim"
	"microscope/internal/simtime"
)

// TestMetaOfChain pins MetaOf on a linear chain against the description
// written out by hand.
func TestMetaOfChain(t *testing.T) {
	sim := nfsim.BuildChain(nil, 1,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.7)},
	)
	want := Meta{
		MaxBatch: 32,
		Components: []ComponentMeta{
			{Name: "source", Kind: "source"},
			{Name: "nat1", Kind: "nat", PeakRate: simtime.MPPS(1)},
			{Name: "fw1", Kind: "fw", PeakRate: simtime.MPPS(0.8)},
			{Name: "vpn1", Kind: "vpn", PeakRate: simtime.MPPS(0.7), Egress: true},
		},
		Edges: []Edge{{From: "source", To: "nat1"}, {From: "nat1", To: "fw1"}, {From: "fw1", To: "vpn1"}},
	}
	if got := MetaOf(sim); !reflect.DeepEqual(got, want) {
		t.Errorf("MetaOf(chain) =\n%+v\nwant\n%+v", got, want)
	}
}

// TestMetaOfEvalTopology pins MetaOf on the Figure 10 topology: components
// source, NATs, firewalls, monitors, VPNs; edges source→NATs, NAT→firewalls,
// firewall→monitors then VPNs, monitor→VPNs; only the VPNs are egress.
// Component and edge order decide interning and upstream iteration, so
// the order is part of what is pinned.
func TestMetaOfEvalTopology(t *testing.T) {
	topo := nfsim.BuildEvalTopology(nil, nfsim.EvalTopologyConfig{Seed: 3})
	cfg := topo.Config
	want := Meta{MaxBatch: 32, Components: []ComponentMeta{{Name: "source", Kind: "source"}}}
	for _, g := range []struct {
		kind  string
		names []string
		rate  simtime.Rate
	}{
		{"nat", topo.NATs, cfg.NATRate},
		{"fw", topo.Firewalls, cfg.FirewallRate},
		{"mon", topo.Monitors, cfg.MonitorRate},
		{"vpn", topo.VPNs, cfg.VPNRate},
	} {
		for _, n := range g.names {
			want.Components = append(want.Components, ComponentMeta{Name: n, Kind: g.kind, PeakRate: g.rate, Egress: g.kind == "vpn"})
		}
	}
	link := func(from []string, to ...string) {
		for _, f := range from {
			for _, d := range to {
				want.Edges = append(want.Edges, Edge{From: f, To: d})
			}
		}
	}
	link([]string{"source"}, topo.NATs...)
	link(topo.NATs, topo.Firewalls...)
	link(topo.Firewalls, append(append([]string(nil), topo.Monitors...), topo.VPNs...)...)
	link(topo.Monitors, topo.VPNs...)

	got := MetaOf(topo.Sim)
	if len(got.Components) != 17 || len(got.Edges) != 4+4*5+5*7+3*4 {
		t.Fatalf("MetaOf(eval): %d components, %d edges", len(got.Components), len(got.Edges))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MetaOf(eval) =\n%+v\nwant\n%+v", got, want)
	}
}

// TestMetaCheck names every problem at its field path, and passes what
// MetaOf derives.
func TestMetaCheck(t *testing.T) {
	sim := nfsim.BuildChain(nil, 1, nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)})
	derived := MetaOf(sim)
	if bad := derived.Check(); bad != nil {
		t.Fatalf("derived meta rejected: %v", bad)
	}
	if bad := (&Meta{}).Check(); len(bad) != 1 || bad[0].Path != "components" {
		t.Errorf("empty meta: %v", bad)
	}
	m := Meta{
		MaxBatch: -1,
		Components: []ComponentMeta{
			{Name: "a"}, {Name: "a"}, {Name: ""}, {Name: "b", PeakRate: -5},
		},
		Edges: []Edge{{From: "a", To: "ghost"}, {From: "phantom", To: "b"}},
	}
	want := []string{
		`components[1].name: duplicate component "a"`,
		`components[2].name: must not be empty`,
		`components[3].peak_rate: must be >= 0, got -5`,
		`edges[0].to: unknown component "ghost"`,
		`edges[1].from: unknown component "phantom"`,
		`max_batch: must be >= 0, got -1`,
	}
	if got := m.Check().Error(); got != strings.Join(want, "; ") {
		t.Errorf("Check =\n%s\nwant\n%s", got, strings.Join(want, "; "))
	}
}

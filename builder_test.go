package microscope

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/simtime"
)

func figure2DAG(flowA FiveTuple) *Deployment {
	return NewBuilder(33).
		AddNF(NFSpec{Name: "nat", Kind: "nat", Rate: MPPS(1.0)}).
		AddNF(NFSpec{Name: "vpn", Kind: "vpn", Rate: MPPS(0.6)}).
		Source(func(ft FiveTuple) string {
			if ft == flowA {
				return "vpn"
			}
			return "nat"
		}, "nat", "vpn").
		Connect("nat", nil, "vpn").
		Build()
}

func TestBuilderDAGRouting(t *testing.T) {
	flowA := FiveTuple{SrcIP: IP(9, 9, 9, 9), DstIP: IP(8, 8, 8, 8), SrcPort: 1, DstPort: 2, Proto: 17}
	dep := figure2DAG(flowA)
	wl := NewWorkload(WorkloadConfig{Rate: MPPS(0.3), Duration: 2 * simtime.Millisecond, Flows: 64, Seed: 1})
	wl.InjectFlow(flowA, 0, 50, 20*simtime.Microsecond)
	dep.Replay(wl)
	dep.Run(50 * simtime.Millisecond)

	if got := dep.PathOf(flowA); len(got) != 1 || got[0] != "vpn" {
		t.Fatalf("PathOf(flow A) = %v, want [vpn]", got)
	}
	sawDirect, sawChain := false, false
	for _, p := range dep.Sim().Packets() {
		path := p.Path()
		if pred := dep.PathOf(p.Flow); !slices.Equal(pred, path) {
			t.Fatalf("flow %v: PathOf %v, actual path %v", p.Flow, pred, path)
		}
		if p.Flow == flowA {
			if len(path) != 1 || path[0] != "vpn" {
				t.Fatalf("flow A path: %v", path)
			}
			sawDirect = true
		} else {
			if len(path) != 2 || path[0] != "nat" || path[1] != "vpn" {
				t.Fatalf("background path: %v", path)
			}
			sawChain = true
		}
	}
	if !sawDirect || !sawChain {
		t.Fatal("missing traffic classes")
	}
	// Meta edges must describe the DAG for diagnosis.
	st := Reconstruct(dep.Trace())
	ups := st.Trace.Meta.Upstreams("vpn")
	if len(ups) != 2 {
		t.Errorf("vpn upstreams: %v", ups)
	}
}

func TestBuilderDiagnosisWorks(t *testing.T) {
	flowA := FiveTuple{SrcIP: IP(9, 9, 9, 9), DstIP: IP(8, 8, 8, 8), SrcPort: 1, DstPort: 2, Proto: 17}
	dep := figure2DAG(flowA)
	wl := NewWorkload(WorkloadConfig{Rate: MPPS(0.45), Duration: 6 * simtime.Millisecond, Flows: 128, Seed: 2})
	wl.InjectFlow(flowA, 0, 300, 20*simtime.Microsecond)
	dep.InjectInterrupt("nat", Time(2*simtime.Millisecond), 800*simtime.Microsecond)
	dep.Replay(wl)
	dep.Run(100 * simtime.Millisecond)

	st := Reconstruct(dep.Trace())
	// Find a flow-A packet queued at the VPN after the interrupt.
	blamed := 0
	checked := 0
	for i := range st.Journeys {
		j := &st.Journeys[i]
		if !j.HasTuple || j.Tuple != flowA {
			continue
		}
		hop := st.HopAt(j, "vpn")
		if hop == nil || hop.ReadAt == 0 || hop.ArriveAt < Time(2800*simtime.Microsecond) {
			continue
		}
		if hop.ReadAt.Sub(hop.ArriveAt) < 100*simtime.Microsecond {
			continue
		}
		d := DiagnoseOne(st, Victim{
			Journey: i, Comp: "vpn", ArriveAt: hop.ArriveAt,
			QueueDelay: hop.ReadAt.Sub(hop.ArriveAt),
		})
		checked++
		if len(d.Causes) > 0 && d.Causes[0].Comp == "nat" && d.Causes[0].Kind == CulpritLocalProcessing {
			blamed++
		}
		if checked >= 50 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no flow-A victims found")
	}
	if float64(blamed)/float64(checked) < 0.7 {
		t.Errorf("NAT blamed for only %d of %d cross-path victims", blamed, checked)
	}
}

func TestBuilderPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty", func() { NewBuilder(1).Build() })
	mustPanic("no source", func() {
		NewBuilder(1).AddNF(NFSpec{Name: "a", Kind: "x", Rate: MPPS(1)}).Build()
	})
	mustPanic("zero rate", func() {
		NewBuilder(1).AddNF(NFSpec{Name: "a", Kind: "x"}).Source(nil, "a").Build()
	})
	mustPanic("bad chooser target", func() {
		dep := NewBuilder(1).
			AddNF(NFSpec{Name: "a", Kind: "x", Rate: MPPS(1)}).
			Source(func(FiveTuple) string { return "nonexistent" }, "a").
			Build()
		wl := NewWorkload(WorkloadConfig{Rate: MPPS(0.1), Duration: simtime.Millisecond, Flows: 4, Seed: 1})
		dep.Replay(wl)
		dep.Run(10 * simtime.Millisecond)
	})
}

func TestBuilderFlowHashDefault(t *testing.T) {
	dep := NewBuilder(5).
		AddNF(NFSpec{Name: "a1", Kind: "a", Rate: MPPS(1)}).
		AddNF(NFSpec{Name: "a2", Kind: "a", Rate: MPPS(1)}).
		Source(nil, "a1", "a2").
		Build()
	wl := NewWorkload(WorkloadConfig{Rate: MPPS(0.4), Duration: 2 * simtime.Millisecond, Flows: 256, Seed: 6})
	dep.Replay(wl)
	dep.Run(20 * simtime.Millisecond)
	seen := map[string]int{}
	for _, p := range dep.Sim().Packets() {
		if len(p.Hops) > 0 {
			seen[p.Hops[0].Node]++
		}
	}
	if seen["a1"] == 0 || seen["a2"] == 0 {
		t.Errorf("flow-hash balancing unused: %v", seen)
	}
}

func TestReportRenderSmoke(t *testing.T) {
	dep := NewChainDeployment(3, ChainNF{Name: "fw1", Kind: "fw", Rate: MPPS(0.5)})
	wl := NewWorkload(WorkloadConfig{Rate: MPPS(0.3), Duration: 3 * simtime.Millisecond, Flows: 64, Seed: 4})
	wl.InjectBurst(Burst{At: Time(simtime.Millisecond), Flow: wl.PickFlow(0), Count: 500})
	dep.Replay(wl)
	dep.Run(50 * simtime.Millisecond)
	rep := Diagnose(dep.Trace())
	out := rep.Render()
	for _, want := range []string{"Microscope report", "victims diagnosed", "Top culprits"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestBuildE exercises the error-returning construction paths: every
// misdeclaration surfaces as an error, a valid graph builds, and the
// panicking wrappers stay equivalent.
func TestBuildE(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
	}{
		{"empty", NewBuilder(1)},
		{"no source", NewBuilder(1).AddNF(NFSpec{Name: "a", Kind: "x", Rate: MPPS(1)})},
		{"zero rate", NewBuilder(1).AddNF(NFSpec{Name: "a", Kind: "x"}).Source(nil, "a")},
		{"unnamed", NewBuilder(1).AddNF(NFSpec{Kind: "x", Rate: MPPS(1)}).Source(nil, "")},
		{"duplicate", NewBuilder(1).
			AddNF(NFSpec{Name: "a", Kind: "x", Rate: MPPS(1)}).
			AddNF(NFSpec{Name: "a", Kind: "x", Rate: MPPS(1)}).
			Source(nil, "a")},
		{"source to ghost", NewBuilder(1).
			AddNF(NFSpec{Name: "a", Kind: "x", Rate: MPPS(1)}).
			Source(nil, "ghost")},
		{"connect to ghost", NewBuilder(1).
			AddNF(NFSpec{Name: "a", Kind: "x", Rate: MPPS(1)}).
			Source(nil, "a").
			Connect("a", nil, "ghost")},
		{"connect from ghost", NewBuilder(1).
			AddNF(NFSpec{Name: "a", Kind: "x", Rate: MPPS(1)}).
			Source(nil, "a").
			Connect("ghost", nil, "a")},
	}
	for _, c := range cases {
		if d, err := c.b.BuildE(); err == nil || d != nil {
			t.Errorf("%s: BuildE accepted an invalid graph", c.name)
		}
	}
	d, err := NewBuilder(1).
		AddNF(NFSpec{Name: "a", Kind: "x", Rate: MPPS(1)}).
		Source(nil, "a").
		BuildE()
	if err != nil || d == nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

// TestNewChainDeploymentE covers the chain error paths.
func TestNewChainDeploymentE(t *testing.T) {
	if _, err := NewChainDeploymentE(1); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := NewChainDeploymentE(1, ChainNF{Kind: "fw", Rate: MPPS(1)}); err == nil {
		t.Error("unnamed NF accepted")
	}
	if _, err := NewChainDeploymentE(1, ChainNF{Name: "fw1", Kind: "fw"}); err == nil {
		t.Error("zero-rate NF accepted")
	}
	if _, err := NewChainDeploymentE(1,
		ChainNF{Name: "fw1", Kind: "fw", Rate: MPPS(1)},
		ChainNF{Name: "fw1", Kind: "fw", Rate: MPPS(1)}); err == nil {
		t.Error("duplicate NF accepted")
	}
	d, err := NewChainDeploymentE(1, ChainNF{Name: "fw1", Kind: "fw", Rate: MPPS(1)})
	if err != nil || d == nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewChainDeployment wrapper no longer panics")
		}
	}()
	NewChainDeployment(1)
}

// TestDeploymentMeta pins the trace metadata of a Builder DAG and of a
// chain deployment against the descriptions written out by hand: the
// source first, NFs in AddNF order, edges in declaration order whatever
// order Connect was called in, egress where nothing is connected.
func TestDeploymentMeta(t *testing.T) {
	dag := NewBuilder(5).
		AddNF(NFSpec{Name: "lb", Kind: "lb", Rate: MPPS(2)}).
		AddNF(NFSpec{Name: "fw", Kind: "fw", Rate: MPPS(1)}).
		AddNF(NFSpec{Name: "ids", Kind: "ids", Rate: MPPS(0.8), QueueCap: 256}).
		AddNF(NFSpec{Name: "out", Kind: "vpn", Rate: MPPS(1.5)}).
		Source(nil, "lb").
		Connect("ids", nil, "out").
		Connect("lb", nil, "fw", "ids").
		Connect("fw", nil, "out").
		Build()
	wantDAG := collector.Meta{
		MaxBatch: 32,
		Components: []collector.ComponentMeta{
			{Name: "source", Kind: "source"},
			{Name: "lb", Kind: "lb", PeakRate: MPPS(2)},
			{Name: "fw", Kind: "fw", PeakRate: MPPS(1)},
			{Name: "ids", Kind: "ids", PeakRate: MPPS(0.8)},
			{Name: "out", Kind: "vpn", PeakRate: MPPS(1.5), Egress: true},
		},
		Edges: []collector.Edge{
			{From: "source", To: "lb"},
			{From: "lb", To: "fw"}, {From: "lb", To: "ids"},
			{From: "fw", To: "out"},
			{From: "ids", To: "out"},
		},
	}
	if got := dag.Trace().Meta; !reflect.DeepEqual(got, wantDAG) {
		t.Errorf("Builder DAG meta =\n%+v\nwant\n%+v", got, wantDAG)
	}

	chain := NewChainDeployment(7,
		ChainNF{Name: "nat1", Kind: "nat", Rate: MPPS(1)},
		ChainNF{Name: "fw1", Kind: "fw", Rate: MPPS(0.5)})
	wantChain := collector.Meta{
		MaxBatch: 32,
		Components: []collector.ComponentMeta{
			{Name: "source", Kind: "source"},
			{Name: "nat1", Kind: "nat", PeakRate: MPPS(1)},
			{Name: "fw1", Kind: "fw", PeakRate: MPPS(0.5), Egress: true},
		},
		Edges: []collector.Edge{{From: "source", To: "nat1"}, {From: "nat1", To: "fw1"}},
	}
	if got := chain.Trace().Meta; !reflect.DeepEqual(got, wantChain) {
		t.Errorf("chain meta =\n%+v\nwant\n%+v", got, wantChain)
	}
	if got := chain.NFs(); !reflect.DeepEqual(got, []string{"nat1", "fw1"}) {
		t.Errorf("chain NFs = %v", got)
	}
}

package microscope

import (
	"fmt"
	"strings"
	"testing"

	"microscope/internal/online"
	"microscope/internal/simtime"
)

func TestQuickstartPipeline(t *testing.T) {
	dep := NewChainDeployment(1,
		ChainNF{Name: "fw1", Kind: "fw", Rate: MPPS(0.5)},
		ChainNF{Name: "vpn1", Kind: "vpn", Rate: MPPS(0.6)},
	)
	wl := NewWorkload(WorkloadConfig{
		Rate:     MPPS(0.25),
		Duration: 8 * simtime.Millisecond,
		Flows:    256,
		Seed:     7,
	})
	wl.InjectBurst(Burst{
		At:    Time(2 * simtime.Millisecond),
		Flow:  wl.PickFlow(0),
		Count: 700,
	})
	dep.Replay(wl)
	dep.Run(100 * simtime.Millisecond)

	st := dep.Stats()
	if st.Emitted == 0 || st.Delivered < st.Emitted*9/10 {
		t.Fatalf("delivery broken: %+v", st)
	}

	rep := Diagnose(dep.Trace())
	if len(rep.Diagnoses) == 0 {
		t.Fatal("no diagnoses")
	}
	top := rep.TopCauses(3)
	if len(top) == 0 {
		t.Fatal("no top causes")
	}
	if top[0].Comp != "source" || top[0].Kind != CulpritSourceTraffic {
		t.Errorf("burst should dominate: got %s/%s", top[0].Comp, top[0].Kind)
	}
	out := rep.Render()
	if !strings.Contains(out, "Top culprits") || !strings.Contains(out, "source") {
		t.Errorf("render: %s", out)
	}
}

func TestEvalDeploymentAndNetMedic(t *testing.T) {
	dep := NewEvalDeployment(EvalTopologyConfig{Seed: 3})
	if len(dep.NFs()) != 16 {
		t.Fatalf("NFs: %d", len(dep.NFs()))
	}
	if len(dep.Firewalls()) != 5 {
		t.Fatalf("firewalls: %d", len(dep.Firewalls()))
	}
	wl := NewWorkload(WorkloadConfig{
		Rate:     MPPS(1.0),
		Duration: 6 * simtime.Millisecond,
		Seed:     4,
	})
	dep.InjectInterrupt(dep.NFs()[0], Time(2*simtime.Millisecond), 700*simtime.Microsecond)
	dep.Replay(wl)
	dep.Run(100 * simtime.Millisecond)

	st := Reconstruct(dep.Trace())
	victims := Victims(st)
	if len(victims) == 0 {
		t.Fatal("no victims")
	}
	res := NetMedicRank(st, victims, 10*simtime.Millisecond)
	if len(res) != len(victims) {
		t.Fatalf("netmedic results: %d", len(res))
	}
	if len(res[0].Ranked) != 17 { // 16 NFs + source
		t.Errorf("ranking size: %d", len(res[0].Ranked))
	}
	if len(dep.GroundTruth().Interrupts) != 1 {
		t.Error("ground truth missing")
	}
}

func TestPathOfMatchesActualPath(t *testing.T) {
	dep := NewEvalDeployment(EvalTopologyConfig{Seed: 5})
	wl := NewWorkload(WorkloadConfig{
		Rate:     MPPS(0.4),
		Duration: 2 * simtime.Millisecond,
		Flows:    64,
		Seed:     6,
	})
	dep.Replay(wl)
	dep.Run(50 * simtime.Millisecond)
	checked := 0
	for _, p := range dep.Sim().Packets() {
		if p.Dropped != "" {
			continue
		}
		want := dep.PathOf(p.Flow)
		got := p.Path()
		if len(want) != len(got) {
			t.Fatalf("path length: predicted %v actual %v", want, got)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("path mismatch: predicted %v actual %v", want, got)
			}
		}
		checked++
		if checked >= 500 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestInjectBugViaAPI(t *testing.T) {
	dep := NewChainDeployment(9, ChainNF{Name: "fw1", Kind: "fw", Rate: MPPS(0.8)})
	bugFlow := FiveTuple{SrcIP: IP(100, 0, 0, 1), DstIP: IP(32, 0, 0, 1), SrcPort: 2004, DstPort: 6004, Proto: 6}
	dep.InjectBug("fw1", SlowPathBug{
		Match: func(ft FiveTuple) bool { return ft == bugFlow },
		Rate:  PPS(20_000),
	})
	wl := NewWorkload(WorkloadConfig{Rate: MPPS(0.3), Duration: 4 * simtime.Millisecond, Flows: 64, Seed: 8})
	wl.InjectFlow(bugFlow, Time(simtime.Millisecond), 40, 5*simtime.Microsecond)
	dep.Replay(wl)
	dep.Run(100 * simtime.Millisecond)

	rep := Diagnose(dep.Trace())
	top := rep.TopCauses(2)
	if len(top) == 0 || top[0].Comp != "fw1" || top[0].Kind != CulpritLocalProcessing {
		t.Errorf("bug not blamed: %+v", top)
	}
}

func TestQueueSamplingAPI(t *testing.T) {
	dep := NewChainDeployment(10, ChainNF{Name: "fw1", Kind: "fw", Rate: MPPS(0.3)})
	wl := NewWorkload(WorkloadConfig{Rate: MPPS(0.5), Duration: simtime.Millisecond, Flows: 8, Seed: 2})
	dep.Replay(wl)
	dep.QueueSampling(20*simtime.Microsecond, 3*simtime.Millisecond)
	dep.Run(30 * simtime.Millisecond)
	if len(dep.QueueSamples("fw1")) == 0 {
		t.Error("no samples")
	}
}

func TestDeploymentString(t *testing.T) {
	dep := NewChainDeployment(1, ChainNF{Name: "a", Kind: "fw", Rate: MPPS(1)})
	if dep.String() != "deployment(1 NFs)" {
		t.Errorf("String: %q", dep.String())
	}
}

func TestOnlineMonitorViaAPI(t *testing.T) {
	dep := NewChainDeployment(13,
		ChainNF{Name: "nat1", Kind: "nat", Rate: MPPS(1)},
		ChainNF{Name: "fw1", Kind: "fw", Rate: MPPS(0.8)},
	)
	wl := NewWorkload(WorkloadConfig{Rate: MPPS(0.4), Duration: 300 * simtime.Millisecond, Flows: 128, Seed: 14})
	dep.InjectInterrupt("fw1", Time(120*simtime.Millisecond), 900*simtime.Microsecond)
	dep.Replay(wl)
	dep.Run(400 * simtime.Millisecond)
	tr := dep.Trace()

	mon := NewMonitor(tr.Meta, &PipelineSpec{})
	alerts := mon.Feed(tr.Records)
	alerts = append(alerts, mon.Flush()...)
	// The zero spec resolves to the monitor's own zero-config defaults.
	bare := online.New(tr.Meta, online.Config{})
	if want := append(bare.Feed(tr.Records), bare.Flush()...); fmt.Sprint(alerts) != fmt.Sprint(want) {
		t.Errorf("NewMonitor(zero spec) alerts differ from online.New(zero config):\n%v\n%v", alerts, want)
	}
	found := false
	for _, a := range alerts {
		if a.Comp == "fw1" && a.Kind == CulpritLocalProcessing {
			found = true
		}
	}
	if !found {
		t.Errorf("monitor missed the interrupt: %v", alerts)
	}
}

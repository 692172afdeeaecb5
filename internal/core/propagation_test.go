package core

import (
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// buildDAGStore constructs a two-upstream DAG (a1, a2 → f) where both
// upstreams are interrupted, runs traffic, and reconstructs.
func buildDAGStore(t *testing.T, interruptA1, interruptA2 bool) (*tracestore.Store, *nfsim.Sim) {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	sim.AddNF(nfsim.NFConfig{Name: "a1", Kind: "nat", PeakRate: simtime.MPPS(1.0), Seed: 1})
	sim.AddNF(nfsim.NFConfig{Name: "a2", Kind: "mon", PeakRate: simtime.MPPS(1.0), Seed: 2})
	sim.AddNF(nfsim.NFConfig{Name: "f", Kind: "vpn", PeakRate: simtime.MPPS(0.6), Seed: 3})
	sim.ConnectSource(func(p *packet.Packet) int {
		if p.Flow.DstPort == 5353 {
			return 1
		}
		return 0
	}, "a1", "a2")
	sim.Connect("a1", func(*packet.Packet) int { return 0 }, "f")
	sim.Connect("a2", func(*packet.Packet) int { return 0 }, "f")
	sim.Connect("f", func(*packet.Packet) int { return nfsim.Egress })

	// Heavy stream through a1 (0.35 Mpps), light through a2 (0.07 Mpps):
	// the Figure 3 asymmetry.
	heavy := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	light := packet.FiveTuple{SrcIP: 5, DstIP: 6, SrcPort: 7, DstPort: 5353, Proto: 17}
	sched := &traffic.Schedule{}
	dur := simtime.Duration(6 * simtime.Millisecond)
	sched.InjectFlow(heavy, 0, int(simtime.MPPS(0.35).PacketsF(dur)), simtime.MPPS(0.35).Interval(), 64)
	sched.InjectFlow(light, 0, int(simtime.MPPS(0.07).PacketsF(dur)), simtime.MPPS(0.07).Interval(), 64)
	sim.LoadSchedule(sched)

	at := simtime.Time(simtime.Millisecond)
	if interruptA1 {
		sim.InjectInterrupt("a1", at, 700*simtime.Microsecond, "a1")
	}
	if interruptA2 {
		sim.InjectInterrupt("a2", at, 700*simtime.Microsecond, "a2")
	}
	sim.Run(simtime.Time(100 * simtime.Millisecond))

	meta := collector.Meta{
		MaxBatch: nfsim.DefaultMaxBatch,
		Components: []collector.ComponentMeta{
			{Name: collector.SourceName, Kind: "source"},
			{Name: "a1", Kind: "nat", PeakRate: simtime.MPPS(1.0)},
			{Name: "a2", Kind: "mon", PeakRate: simtime.MPPS(1.0)},
			{Name: "f", Kind: "vpn", PeakRate: simtime.MPPS(0.6), Egress: true},
		},
		Edges: []collector.Edge{
			{From: collector.SourceName, To: "a1"},
			{From: collector.SourceName, To: "a2"},
			{From: "a1", To: "f"},
			{From: "a2", To: "f"},
		},
	}
	st := tracestore.Build(col.Trace(meta))
	st.Reconstruct()
	return st, sim
}

// TestDAGAttributesDominantUpstream is the §2 example 3 / §4.2 DAG case:
// simultaneous interrupts at a heavy and a light upstream must blame the
// heavy one more.
func TestDAGAttributesDominantUpstream(t *testing.T) {
	st, sim := buildDAGStore(t, true, true)
	eng := NewEngine(Config{})
	// Victims queued at f after the interrupts end.
	after := simtime.Time(1700 * simtime.Microsecond)
	scoreA1, scoreA2 := 0.0, 0.0
	checked := 0
	for i := range st.Journeys {
		j := &st.Journeys[i]
		hop := st.HopAt(j, "f")
		if hop == nil || hop.ReadAt == 0 || hop.ArriveAt < after {
			continue
		}
		delay := hop.ReadAt.Sub(hop.ArriveAt)
		if delay < 50*simtime.Microsecond {
			continue
		}
		d := eng.DiagnoseVictim(st, Victim{
			Journey: i, Comp: "f", ArriveAt: hop.ArriveAt, QueueDelay: delay,
		})
		for _, c := range d.Causes {
			switch c.Comp {
			case "a1":
				scoreA1 += c.Score
			case "a2":
				scoreA2 += c.Score
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no victims at f")
	}
	if scoreA1 <= 2*scoreA2 {
		t.Errorf("heavy upstream a1 (%.1f) not clearly above light a2 (%.1f)", scoreA1, scoreA2)
	}
	_ = sim
}

// TestDAGSingleUpstreamBlamed: only a1 interrupted — a2 must get ~nothing.
func TestDAGSingleUpstreamBlamed(t *testing.T) {
	st, _ := buildDAGStore(t, true, false)
	eng := NewEngine(Config{})
	after := simtime.Time(1700 * simtime.Microsecond)
	scoreA1, scoreA2 := 0.0, 0.0
	for i := range st.Journeys {
		j := &st.Journeys[i]
		hop := st.HopAt(j, "f")
		if hop == nil || hop.ReadAt == 0 || hop.ArriveAt < after {
			continue
		}
		if hop.ReadAt.Sub(hop.ArriveAt) < 50*simtime.Microsecond {
			continue
		}
		d := eng.DiagnoseVictim(st, Victim{
			Journey: i, Comp: "f", ArriveAt: hop.ArriveAt,
			QueueDelay: hop.ReadAt.Sub(hop.ArriveAt),
		})
		for _, c := range d.Causes {
			switch c.Comp {
			case "a1":
				scoreA1 += c.Score
			case "a2":
				scoreA2 += c.Score
			}
		}
	}
	if scoreA1 == 0 {
		t.Fatal("a1 never blamed")
	}
	if scoreA2 > scoreA1/5 {
		t.Errorf("innocent a2 blamed too much: a1=%.1f a2=%.1f", scoreA1, scoreA2)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.setDefaults()
	if c.VictimPercentile != 99 || c.MaxRecursionDepth != 5 {
		t.Errorf("defaults: %+v", c)
	}
	if c.QueueThreshold != 0 {
		t.Errorf("queue threshold default: %d", c.QueueThreshold)
	}
}

func TestCulpritJourneyCap(t *testing.T) {
	sc := new(victimScratch)
	many := make([]int, 3000)
	for i := range many {
		many[i] = i
	}
	k := causeKey{comp: 7, kind: CulpritLocalProcessing}
	sc.add(k, 1, 0, many)
	sc.add(k, 1, 0, many)
	sc.add(k, 1, 0, many)
	got := sc.get(k)
	if got == nil || got.score != 3 {
		t.Fatalf("acc: %+v", got)
	}
	if len(got.journeys) > 4096+len(many) {
		t.Errorf("culprit journeys unbounded: %d", len(got.journeys))
	}
}

func TestAddCauseIgnoresNonPositive(t *testing.T) {
	sc := new(victimScratch)
	k := causeKey{comp: 7, kind: CulpritLocalProcessing}
	sc.add(k, 0, 0, nil)
	sc.add(k, -5, 0, nil)
	if len(sc.accs) != 0 || sc.get(k) != nil {
		t.Error("non-positive causes accumulated")
	}
}

func TestAddCauseKeepsEarliestOnset(t *testing.T) {
	sc := new(victimScratch)
	k := causeKey{comp: 7, kind: CulpritLocalProcessing}
	sc.add(k, 1, 500, nil)
	sc.add(k, 1, 100, nil)
	sc.add(k, 1, 900, nil)
	got := sc.get(k)
	if got == nil || got.at != 100 {
		t.Errorf("onset: %+v", got)
	}
}

// TestScratchSlotReuse: reset retires slots but a subsequent add must not
// resurrect stale journeys from the reused buffer.
func TestScratchSlotReuse(t *testing.T) {
	sc := new(victimScratch)
	k := causeKey{comp: 3, kind: CulpritSourceTraffic}
	sc.add(k, 2, 50, []int{1, 2, 3})
	sc.reset()
	if len(sc.accs) != 0 || sc.get(k) != nil {
		t.Fatalf("reset left state: %d accs, live key", len(sc.accs))
	}
	sc.add(k, 1, 9, []int{42})
	got := sc.get(k)
	if got == nil || got.score != 1 || got.at != 9 || len(got.journeys) != 1 || got.journeys[0] != 42 {
		t.Errorf("reused slot carried stale state: %+v", got)
	}
}

// TestScratchGenerationWrap: a full uint32 generation wrap must not let
// pre-wrap stamps alias post-wrap generations.
func TestScratchGenerationWrap(t *testing.T) {
	sc := new(victimScratch)
	k := causeKey{comp: 5, kind: CulpritLocalProcessing}
	sc.add(k, 3, 10, nil)
	sc.gen = ^uint32(0) // force the next reset to wrap
	sc.reset()
	if sc.gen != 1 {
		t.Fatalf("gen after wrap: %d", sc.gen)
	}
	if sc.get(k) != nil {
		t.Fatal("stale slot visible after generation wrap")
	}
	sc.add(k, 1, 2, nil)
	got := sc.get(k)
	if got == nil || got.score != 1 || got.at != 2 {
		t.Errorf("post-wrap acc: %+v", got)
	}
}

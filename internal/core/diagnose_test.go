package core

import (
	"reflect"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

func flow(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.IPFromOctets(10, 0, byte(i>>8), byte(i)),
		DstIP:   packet.IPFromOctets(23, 9, 8, 7),
		SrcPort: uint16(1024 + i%60000),
		DstPort: 4433,
		Proto:   packet.ProtoUDP,
	}
}

func cbr(rate simtime.Rate, dur simtime.Duration, nflows int) *traffic.Schedule {
	iv := rate.Interval()
	var ems []traffic.Emission
	i := 0
	for t := simtime.Time(0); t < simtime.Time(dur); t = t.Add(iv) {
		ems = append(ems, traffic.Emission{At: t, Flow: flow(i % nflows), Size: 64, Burst: -1})
		i++
	}
	return &traffic.Schedule{Emissions: ems}
}

// buildStore runs a chain sim with the collector and reconstructs.
func buildStore(sim *nfsim.Sim, col *collector.Collector, names []string, until simtime.Time) *tracestore.Store {
	sim.Run(until)
	st := tracestore.Build(col.Trace(collector.MetaOf(sim)))
	return st
}

// topCause returns the top-ranked cause of a diagnosis, or nil.
func topCause(d *Diagnosis) *Cause {
	if len(d.Causes) == 0 {
		return nil
	}
	return &d.Causes[0]
}

// TestDiagnoseBurstVictims: a traffic burst overloads a firewall; latency
// victims must blame source traffic first (Figure 1 / §6.2 bursts).
func TestDiagnoseBurstVictims(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 21,
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.5)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.6)},
	)
	sched := cbr(simtime.MPPS(0.25), simtime.Duration(5*simtime.Millisecond), 17)
	sched.InjectBurst(traffic.BurstSpec{
		ID: 1, At: simtime.Time(simtime.Millisecond), Flow: flow(3), Count: 800,
	})
	sim.LoadSchedule(sched)
	st := buildStore(sim, col, []string{"fw1", "vpn1"}, simtime.Time(100*simtime.Millisecond))

	eng := NewEngine(Config{})
	diags := eng.Diagnose(st)
	if len(diags) == 0 {
		t.Fatal("no victims diagnosed")
	}
	rank1 := 0
	for i := range diags {
		d := &diags[i]
		if len(d.Causes) == 0 {
			continue
		}
		if d.Causes[0].Comp == collector.SourceName && d.Causes[0].Kind == CulpritSourceTraffic {
			rank1++
		}
	}
	if frac := float64(rank1) / float64(len(diags)); frac < 0.8 {
		t.Errorf("burst blamed first for only %.2f of %d victims", frac, len(diags))
	}
	// Culprit journeys should include burst packets.
	d := diags[0]
	foundBurst := false
	for _, c := range d.Causes {
		if c.Comp != collector.SourceName {
			continue
		}
		for _, jIdx := range c.CulpritJourneys {
			// Burst emissions came back-to-back at 1ms.
			if st.Journeys[jIdx].EmittedAt >= simtime.Time(simtime.Millisecond) &&
				st.Journeys[jIdx].EmittedAt < simtime.Time(1200*simtime.Microsecond) {
				foundBurst = true
			}
		}
	}
	if !foundBurst {
		t.Error("culprit journeys never include burst packets")
	}
}

// TestDiagnoseInterruptPropagation reproduces the §2 example-2 scenario: an
// interrupt at the NAT stalls traffic, then releases a burst that builds
// the VPN queue. Victims AT THE VPN must blame the NAT's local processing,
// even though the interrupt never overlaps them in time.
func TestDiagnoseInterruptPropagation(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 33,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1.0)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.6)},
	)
	sched := cbr(simtime.MPPS(0.4), simtime.Duration(6*simtime.Millisecond), 13)
	sim.LoadSchedule(sched)
	intStart := simtime.Time(simtime.Millisecond)
	intDur := simtime.Duration(800 * simtime.Microsecond)
	sim.InjectInterrupt("nat1", intStart, intDur, "int")
	st := buildStore(sim, col, []string{"nat1", "vpn1"}, simtime.Time(100*simtime.Millisecond))

	eng := NewEngine(Config{})
	// Pick victims queued at the VPN strictly AFTER the interrupt ended:
	// packets whose only problem is the post-interrupt burst from the
	// NAT — they never overlap the interrupt in time.
	vpnVictims, natBlamed := 0, 0
	for i := range st.Journeys {
		j := &st.Journeys[i]
		h := st.HopAt(j, "vpn1")
		if h == nil || h.ReadAt == 0 || h.ArriveAt < intStart.Add(intDur) {
			continue
		}
		delay := h.ReadAt.Sub(h.ArriveAt)
		if delay < 50*simtime.Microsecond {
			continue
		}
		vpnVictims++
		d := eng.DiagnoseVictim(st, Victim{
			Journey: i, Comp: "vpn1", ArriveAt: h.ArriveAt,
			QueueDelay: delay, Kind: VictimLatency,
		})
		if len(d.Causes) > 0 && d.Causes[0].Comp == "nat1" && d.Causes[0].Kind == CulpritLocalProcessing {
			natBlamed++
		}
		if vpnVictims >= 100 {
			break
		}
	}
	if vpnVictims == 0 {
		t.Fatal("no VPN-queued packets after interrupt — impact did not propagate")
	}
	if frac := float64(natBlamed) / float64(vpnVictims); frac < 0.7 {
		t.Errorf("NAT blamed first for only %.2f of %d VPN victims", frac, vpnVictims)
	}
}

// TestDiagnoseInterruptAtVictimNF: victims queued at the stalled NF itself
// must blame that NF's local processing.
func TestDiagnoseInterruptAtVictimNF(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 13,
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
	)
	sched := cbr(simtime.MPPS(0.4), simtime.Duration(5*simtime.Millisecond), 7)
	sim.LoadSchedule(sched)
	sim.InjectInterrupt("fw1", simtime.Time(simtime.Millisecond), simtime.Duration(700*simtime.Microsecond), "int")
	st := buildStore(sim, col, []string{"fw1"}, simtime.Time(100*simtime.Millisecond))

	eng := NewEngine(Config{})
	diags := eng.Diagnose(st)
	blamed, total := 0, 0
	for i := range diags {
		d := &diags[i]
		if len(d.Causes) == 0 {
			continue
		}
		total++
		if d.Causes[0].Comp == "fw1" && d.Causes[0].Kind == CulpritLocalProcessing {
			blamed++
		}
	}
	if total == 0 {
		t.Fatal("no diagnosable victims")
	}
	if frac := float64(blamed) / float64(total); frac < 0.8 {
		t.Errorf("fw1 blamed first for only %.2f of %d victims", frac, total)
	}
}

// TestDiagnoseBugFlows: a slow-path bug at the firewall delays everything
// behind the trigger flows; victims must blame fw1 local processing and the
// culprit journeys must contain the trigger flow (the §6.4 use case).
func TestDiagnoseBugFlows(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 29,
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.8)},
	)
	trigger := packet.FiveTuple{
		SrcIP:   packet.IPFromOctets(100, 0, 0, 1),
		DstIP:   packet.IPFromOctets(32, 0, 0, 1),
		SrcPort: 2004,
		DstPort: 6004,
		Proto:   packet.ProtoTCP,
	}
	sim.InjectBug("fw1", &nfsim.SlowPath{
		Match: func(ft packet.FiveTuple) bool { return ft == trigger },
		Rate:  simtime.PPS(20_000),
	}, "bug")
	sched := cbr(simtime.MPPS(0.4), simtime.Duration(5*simtime.Millisecond), 11)
	sched.InjectFlow(trigger, simtime.Time(simtime.Millisecond), 60, simtime.Duration(5*simtime.Microsecond), 64)
	sim.LoadSchedule(sched)
	st := buildStore(sim, col, []string{"fw1", "vpn1"}, simtime.Time(200*simtime.Millisecond))

	eng := NewEngine(Config{})
	diags := eng.Diagnose(st)
	fwBlamed, total, triggerSeen := 0, 0, false
	for i := range diags {
		d := &diags[i]
		if len(d.Causes) == 0 {
			continue
		}
		total++
		if d.Causes[0].Comp == "fw1" && d.Causes[0].Kind == CulpritLocalProcessing {
			fwBlamed++
			for _, jIdx := range d.Causes[0].CulpritJourneys {
				if st.Journeys[jIdx].HasTuple && st.Journeys[jIdx].Tuple == trigger {
					triggerSeen = true
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no victims")
	}
	if frac := float64(fwBlamed) / float64(total); frac < 0.6 {
		t.Errorf("fw1 processing blamed first for only %.2f of %d victims", frac, total)
	}
	if !triggerSeen {
		t.Error("trigger flow never appears among culprit journeys")
	}
}

// TestDiagnoseQuietSystemHasFewVictims: nominal load should produce a small
// victim set and no huge scores.
func TestDiagnoseQuietSystem(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 41,
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)},
	)
	sched := cbr(simtime.MPPS(0.2), simtime.Duration(3*simtime.Millisecond), 9)
	sim.LoadSchedule(sched)
	st := buildStore(sim, col, []string{"fw1"}, simtime.Time(50*simtime.Millisecond))

	eng := NewEngine(Config{})
	diags := eng.Diagnose(st)
	// 99th percentile always selects ~1% of packets; their causes should
	// be small-scale.
	for i := range diags {
		for _, c := range diags[i].Causes {
			if c.Score > 1000 {
				t.Errorf("implausible score %v on quiet system", c.Score)
			}
		}
	}
}

func TestVictimSelectionLoss(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	sim.AddNF(nfsim.NFConfig{Name: "a", Kind: "nat", PeakRate: simtime.MPPS(1), Seed: 1})
	sim.AddNF(nfsim.NFConfig{Name: "b", Kind: "fw", PeakRate: simtime.PPS(60_000), QueueCap: 64, Seed: 2})
	sim.ConnectSource(func(*packet.Packet) int { return 0 }, "a")
	sim.Connect("a", func(*packet.Packet) int { return 0 }, "b")
	sim.Connect("b", func(*packet.Packet) int { return nfsim.Egress })
	sched := cbr(simtime.MPPS(0.4), simtime.Duration(3*simtime.Millisecond), 9)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(100 * simtime.Millisecond))
	meta := collector.Meta{
		MaxBatch: nfsim.DefaultMaxBatch,
		Components: []collector.ComponentMeta{
			{Name: "source", Kind: "source"},
			{Name: "a", Kind: "nat", PeakRate: simtime.MPPS(1)},
			{Name: "b", Kind: "fw", PeakRate: simtime.PPS(60_000), Egress: true},
		},
		Edges: []collector.Edge{{From: "source", To: "a"}, {From: "a", To: "b"}},
	}
	st := tracestore.Build(col.Trace(meta))

	eng := NewEngine(Config{})
	victims := eng.FindVictims(st)
	losses := 0
	for _, v := range victims {
		if v.Kind == VictimLoss {
			losses++
		}
	}
	if losses == 0 {
		t.Fatal("overload produced no loss victims")
	}
	// Diagnosing a loss victim should not panic and should find causes.
	var lossV *Victim
	for i := range victims {
		if victims[i].Kind == VictimLoss {
			lossV = &victims[i]
			break
		}
	}
	d := eng.DiagnoseVictim(st, *lossV)
	if len(d.Causes) == 0 {
		t.Error("loss victim has no causes")
	}
}

func TestRankOf(t *testing.T) {
	d := Diagnosis{Causes: []Cause{
		{Comp: "a", Kind: CulpritLocalProcessing},
		{Comp: "source", Kind: CulpritSourceTraffic},
	}}
	if r := d.RankOf(func(c Cause) bool { return c.Comp == "source" }); r != 2 {
		t.Errorf("rank: got %d", r)
	}
	if r := d.RankOf(func(c Cause) bool { return c.Comp == "zzz" }); r != 0 {
		t.Errorf("missing rank: got %d", r)
	}
}

func TestKindStrings(t *testing.T) {
	if CulpritSourceTraffic.String() != "traffic" || CulpritLocalProcessing.String() != "processing" {
		t.Error("CulpritKind strings")
	}
	if CulpritKind(7).String() == "" {
		t.Error("unknown kind string empty")
	}
	if VictimLatency.String() != "latency" || VictimLoss.String() != "loss" {
		t.Error("VictimKind strings")
	}
}

// TestDiagnosisDeterminism: same input, same output.
func TestDiagnosisDeterminism(t *testing.T) {
	run := func() []Diagnosis {
		col := collector.New(collector.Config{})
		sim := nfsim.BuildChain(col, 21,
			nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.5)},
		)
		sched := cbr(simtime.MPPS(0.3), simtime.Duration(3*simtime.Millisecond), 7)
		sched.InjectBurst(traffic.BurstSpec{ID: 1, At: simtime.Time(simtime.Millisecond), Flow: flow(2), Count: 400})
		sim.LoadSchedule(sched)
		st := buildStore(sim, col, []string{"fw1"}, simtime.Time(50*simtime.Millisecond))
		return NewEngine(Config{}).Diagnose(st)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("victim counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Causes) != len(b[i].Causes) {
			t.Fatalf("cause counts differ at %d", i)
		}
		for j := range a[i].Causes {
			if a[i].Causes[j].Comp != b[i].Causes[j].Comp || a[i].Causes[j].Score != b[i].Causes[j].Score {
				t.Fatalf("cause %d/%d differs", i, j)
			}
		}
	}
}

// TestDegradedHealthSuppressesLossVictims: the same overloaded run that
// yields loss victims on a pristine trace must yield none once the trace is
// marked damaged — telemetry loss masquerades as packet loss, so degraded
// health suppresses the class. Forcing LossVictimsWhenDegraded restores it.
func TestDegradedHealthSuppressesLossVictims(t *testing.T) {
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	sim.AddNF(nfsim.NFConfig{Name: "a", Kind: "nat", PeakRate: simtime.MPPS(1), Seed: 1})
	sim.AddNF(nfsim.NFConfig{Name: "b", Kind: "fw", PeakRate: simtime.PPS(60_000), QueueCap: 64, Seed: 2})
	sim.ConnectSource(func(*packet.Packet) int { return 0 }, "a")
	sim.Connect("a", func(*packet.Packet) int { return 0 }, "b")
	sim.Connect("b", func(*packet.Packet) int { return nfsim.Egress })
	sched := cbr(simtime.MPPS(0.4), simtime.Duration(3*simtime.Millisecond), 9)
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(100 * simtime.Millisecond))
	meta := collector.Meta{
		MaxBatch: nfsim.DefaultMaxBatch,
		Components: []collector.ComponentMeta{
			{Name: "source", Kind: "source"},
			{Name: "a", Kind: "nat", PeakRate: simtime.MPPS(1)},
			{Name: "b", Kind: "fw", PeakRate: simtime.PPS(60_000), Egress: true},
		},
		Edges: []collector.Edge{{From: "source", To: "a"}, {From: "a", To: "b"}},
	}
	tr := col.Trace(meta)

	countLoss := func(victims []Victim) int {
		n := 0
		for _, v := range victims {
			if v.Kind == VictimLoss {
				n++
			}
		}
		return n
	}

	clean := tracestore.Build(tr)
	if countLoss(NewEngine(Config{}).FindVictims(clean)) == 0 {
		t.Fatal("pristine trace produced no loss victims")
	}

	damaged := *tr
	damaged.Integrity.DroppedRecords = 50
	dst := tracestore.Build(&damaged)
	if !dst.Health().Degraded() {
		t.Fatalf("marked-damaged store not degraded: %v", dst.Health())
	}
	if n := countLoss(NewEngine(Config{}).FindVictims(dst)); n != 0 {
		t.Fatalf("degraded trace still yields %d loss victims", n)
	}
	forced := NewEngine(Config{LossVictimsWhenDegraded: true})
	if countLoss(forced.FindVictims(dst)) == 0 {
		t.Fatal("forcing LossVictimsWhenDegraded restored nothing")
	}
}

// TestTopCauses: causes merge per <component, kind> with summed scores and
// the earliest onset, rank by descending score, and tied scores keep the
// order in which their culprit was first seen.
func TestTopCauses(t *testing.T) {
	diags := []Diagnosis{
		{Causes: []Cause{
			{Comp: "fw1", Kind: CulpritLocalProcessing, Score: 5, At: 30, CulpritJourneys: []int{1}},
			{Comp: "nat1", Kind: CulpritLocalProcessing, Score: 4, At: 10},
		}},
		{Causes: []Cause{
			{Comp: "source", Kind: CulpritSourceTraffic, Score: 9, At: 5},
			{Comp: "fw1", Kind: CulpritLocalProcessing, Score: 4, At: 20},
			{Comp: "fw1", Kind: CulpritSourceTraffic, Score: 9, At: 40},
			{Comp: "vpn1", Kind: CulpritLocalProcessing, Score: 4, At: 50},
		}},
	}
	got := TopCauses(diags, 0)
	want := []Cause{
		{Comp: "fw1", Kind: CulpritLocalProcessing, Score: 9, At: 20},
		{Comp: "source", Kind: CulpritSourceTraffic, Score: 9, At: 5},
		{Comp: "fw1", Kind: CulpritSourceTraffic, Score: 9, At: 40},
		{Comp: "nat1", Kind: CulpritLocalProcessing, Score: 4, At: 10},
		{Comp: "vpn1", Kind: CulpritLocalProcessing, Score: 4, At: 50},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopCauses = %+v\nwant %+v", got, want)
	}
	if got := TopCauses(diags, 2); !reflect.DeepEqual(got, want[:2]) {
		t.Errorf("TopCauses(limit 2) = %+v", got)
	}
	if diags[0].Causes[0].CulpritJourneys == nil || diags[0].Causes[0].Score != 5 {
		t.Error("TopCauses modified its input")
	}
}

package experiments

import (
	"sort"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/perfsight"
	"microscope/internal/report"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

// PerfSightComparison reproduces the §8 positioning claim: counter-based
// persistent-bottleneck diagnosis (PerfSight) and queuing-period causal
// diagnosis (Microscope) on two scenarios —
//
//	persistent: an undersized firewall drops packets throughout the run;
//	transient:  a healthy chain suffers one CPU interrupt (tail latency,
//	            no sustained loss).
//
// Expected shape: PerfSight names the saturated/lossy elements; Microscope
// attributes the same scenario to sustained input over-subscription
// (Si > 0 because the offered rate exceeds the element's peak rate — the
// §4.1 "high input rate" case), which is the complementary, provisioning-
// level answer. On the transient scenario PerfSight stays silent while
// Microscope pins the interrupt.
type PerfSightComparison struct {
	Table *report.Table
	// PersistentAgree: both tools point at the undersized element.
	PersistentAgree bool
	// TransientOnlyMicroscope: PerfSight silent, Microscope correct.
	TransientOnlyMicroscope bool
	PersistentReport        string
	TransientReport         string
}

// RunPerfSightComparison executes both scenarios.
func RunPerfSightComparison(seed int64) *PerfSightComparison {
	res := &PerfSightComparison{}
	tbl := &report.Table{
		Title: "PerfSight (persistent counters) vs Microscope (queuing periods)",
		Cols:  []string{"scenario", "PerfSight verdict", "Microscope top culprit"},
	}

	// --- Scenario 1: persistent bottleneck ---
	{
		col := collector.New(collector.Config{})
		sim := nfsim.New(col)
		sim.AddNF(nfsim.NFConfig{Name: "nat1", Kind: "nat", PeakRate: simtime.MPPS(1), Seed: seed})
		sim.AddNF(nfsim.NFConfig{Name: "fw1", Kind: "fw", PeakRate: simtime.MPPS(0.2), QueueCap: 256, Seed: seed + 1})
		sim.ConnectSource(func(*packet.Packet) int { return 0 }, "nat1")
		sim.Connect("nat1", func(*packet.Packet) int { return 0 }, "fw1")
		sim.Connect("fw1", func(*packet.Packet) int { return nfsim.Egress })
		sim.LoadSchedule(steadySchedule(simtime.MPPS(0.4), 20*simtime.Millisecond, seed))
		sim.Run(simtime.Time(200 * simtime.Millisecond))
		tr := col.Trace(collector.MetaOf(sim))

		ps := perfsight.Diagnose(tr, perfsight.Config{})
		res.PersistentReport = ps.Render()
		psVerdict := "none"
		if bns := ps.Bottlenecks(); len(bns) > 0 {
			psVerdict = bns[0].Comp + " (" + bns[0].Reason + ")"
		}

		st := tracestore.Build(tr)
		diags := core.NewEngine(core.Config{MaxVictims: 200}).Diagnose(st)
		msVerdict, fwBlamed := topCulprit(diags)
		tbl.AddRow("persistent (undersized fw1)", psVerdict, msVerdict)
		psFound := false
		for _, b := range ps.Bottlenecks() {
			if b.Comp == "fw1" || b.Comp == "nat1" {
				psFound = true
			}
		}
		// Complementary verdicts: PerfSight flags the dataplane element
		// (fw1 saturation / nat1 tx loss); Microscope attributes the
		// overload to its cause, the offered traffic.
		res.PersistentAgree = psFound && fwBlamed == "source"
	}

	// --- Scenario 2: transient interrupt ---
	{
		col := collector.New(collector.Config{})
		sim := nfsim.BuildChain(col, seed+7,
			nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
			nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
		)
		sim.LoadSchedule(steadySchedule(simtime.MPPS(0.4), 20*simtime.Millisecond, seed+8))
		sim.InjectInterrupt("fw1", simtime.Time(5*simtime.Millisecond), 900*simtime.Microsecond, "t")
		sim.Run(simtime.Time(200 * simtime.Millisecond))
		tr := col.Trace(collector.MetaOf(sim))

		ps := perfsight.Diagnose(tr, perfsight.Config{})
		res.TransientReport = ps.Render()
		psVerdict := "none"
		if bns := ps.Bottlenecks(); len(bns) > 0 {
			psVerdict = bns[0].Comp + " (" + bns[0].Reason + ")"
		}

		st := tracestore.Build(tr)
		diags := core.NewEngine(core.Config{MaxVictims: 200}).Diagnose(st)
		msVerdict, fwBlamed := topCulprit(diags)
		tbl.AddRow("transient (900us interrupt at fw1)", psVerdict, msVerdict)
		res.TransientOnlyMicroscope = psVerdict == "none" && fwBlamed == "fw1"
	}

	res.Table = tbl
	return res
}

// steadySchedule is CBR traffic over a few dozen flows.
func steadySchedule(rate simtime.Rate, dur simtime.Duration, seed int64) *traffic.Schedule {
	iv := rate.Interval()
	var ems []traffic.Emission
	i := 0
	for t := simtime.Time(0); t < simtime.Time(dur); t = t.Add(iv) {
		ems = append(ems, traffic.Emission{
			At: t,
			Flow: packet.FiveTuple{
				SrcIP: packet.IPFromOctets(10, byte(seed), 0, byte(i%40)), DstIP: packet.IPFromOctets(23, 0, 0, 1),
				SrcPort: uint16(1024 + i%40), DstPort: 443, Proto: packet.ProtoTCP,
			},
			Size: 64, Burst: -1,
		})
		i++
	}
	return &traffic.Schedule{Emissions: ems}
}

// topCulprit summarizes the dominant cause across diagnoses.
func topCulprit(diags []core.Diagnosis) (string, string) {
	scores := make(map[string]float64)
	for i := range diags {
		for _, c := range diags[i].Causes {
			scores[c.Comp+"/"+c.Kind.String()] += c.Score
		}
	}
	// Iterate in sorted key order so score ties resolve to the same
	// culprit on every run (map order is randomized per process).
	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best, bestComp, bestScore := "none", "", 0.0
	for _, k := range keys {
		if v := scores[k]; v > bestScore {
			best, bestScore = k, v
			bestComp = k[:indexByte(k, '/')]
		}
	}
	return best, bestComp
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return len(s)
}

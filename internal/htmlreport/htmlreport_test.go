package htmlreport

import (
	"strings"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/patterns"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

func buildInput(t *testing.T) Input {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 5,
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.5)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.6)},
	)
	iv := simtime.MPPS(0.3).Interval()
	var ems []traffic.Emission
	for i := 0; i < 1200; i++ {
		ems = append(ems, traffic.Emission{
			At: simtime.Time(simtime.Duration(i) * iv),
			Flow: packet.FiveTuple{
				SrcIP: packet.IPFromOctets(10, 0, 0, byte(i%37)), DstIP: packet.IPFromOctets(23, 0, 0, 1),
				SrcPort: uint16(1024 + i%37), DstPort: 80, Proto: packet.ProtoTCP,
			},
			Size: 64, Burst: -1,
		})
	}
	sched := &traffic.Schedule{Emissions: ems}
	sched.InjectBurst(traffic.BurstSpec{ID: 1, At: simtime.Time(simtime.Millisecond), Flow: ems[0].Flow, Count: 400})
	sim.LoadSchedule(sched)
	sim.Run(simtime.Time(100 * simtime.Millisecond))
	st := tracestore.Build(col.Trace(collector.MetaOf(sim)))

	eng := core.NewEngine(core.Config{MaxVictims: 50})
	diags := eng.Diagnose(st)
	pcfg := patterns.Config{}
	pats := patterns.Aggregate(patterns.RelationsFromDiagnoses(st, diags, pcfg), pcfg)
	in := Input{Store: st, Diagnoses: diags, Patterns: pats}
	if len(diags) > 0 {
		in.Explanation = eng.Explain(st, diags[0].Victim)
	}
	return in
}

func TestRenderCompletePage(t *testing.T) {
	in := buildInput(t)
	page := Render(in)
	for _, want := range []string{
		"<!DOCTYPE html>", "</html>",
		"Top culprits", "Causal patterns", "Causal tree", "queue occupancy",
		"<svg", "fw1", "source",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
	// Balanced structure.
	if strings.Count(page, "<table>") != strings.Count(page, "</table>") {
		t.Error("unbalanced tables")
	}
	if strings.Count(page, "<svg") != strings.Count(page, "</svg>") {
		t.Error("unbalanced svg")
	}
}

func TestRenderEscapesContent(t *testing.T) {
	in := buildInput(t)
	in.Title = `<script>alert("x")</script>`
	page := Render(in)
	if strings.Contains(page, "<script>") {
		t.Error("title not escaped")
	}
	if !strings.Contains(page, "&lt;script&gt;") {
		t.Error("escaped title missing")
	}
}

func TestRenderWithoutOptionalParts(t *testing.T) {
	in := buildInput(t)
	in.Explanation = nil
	in.Patterns = nil
	page := Render(in)
	if strings.Contains(page, "Causal tree") {
		t.Error("tree section without explanation")
	}
	if strings.Contains(page, "Causal patterns") {
		t.Error("patterns section without patterns")
	}
}

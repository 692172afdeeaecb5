package pipeline_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// fmtFingerprint is the fingerprint as fmt renders it — the definition
// Result.AppendFingerprint's strconv calls must reproduce byte for byte.
func fmtFingerprint(res *pipeline.Result) string {
	h := res.Health
	health := fmt.Sprintf("health: %d records, %d journeys, %.2f%% unmatched",
		h.Records, h.Journeys, h.UnmatchedFrac()*100)
	if h.Integrity.Damaged() {
		health += fmt.Sprintf(", damaged (%d dropped, %d skipped, %d truncated)",
			h.Integrity.DroppedRecords, h.Integrity.DecodeSkipped, h.Integrity.TruncatedRecords)
	}
	if h.Recon.Quarantined > 0 {
		health += fmt.Sprintf(", %d journeys quarantined", h.Recon.Quarantined)
	}
	if h.Degraded() {
		health += " [degraded]"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "level=%v victims=%d diagnoses=%d contained=%d relations=%d\n",
		res.Degradation, len(res.Victims), len(res.Diagnoses), res.ContainedPanics, res.Relations)
	fmt.Fprintf(&b, "health %s\n", health)
	for _, v := range res.Victims {
		fmt.Fprintf(&b, "victim %d %s %s %d %d\n", v.Journey, v.Comp, v.Kind, v.ArriveAt, v.QueueDelay)
	}
	for i := range res.Diagnoses {
		for _, c := range res.Diagnoses[i].Causes {
			fmt.Fprintf(&b, "  cause %s %s %.17g %d %v\n", c.Comp, c.Kind, c.Score, c.At, c.CulpritJourneys)
		}
	}
	for _, p := range res.Patterns {
		fmt.Fprintf(&b, "pattern %s score=%.17g\n", p.String(), p.Score)
	}
	return b.String()
}

func checkFingerprint(t *testing.T, what string, res *pipeline.Result) {
	t.Helper()
	want := fmtFingerprint(res)
	if got := res.Fingerprint(); got != want {
		t.Fatalf("%s: Fingerprint differs from the fmt rendering\n--- strconv ---\n%s\n--- fmt ---\n%s", what, got, want)
	}
	// Appending continues whatever the buffer already holds.
	if got := string(res.AppendFingerprint([]byte("prefix|"))); got != "prefix|"+want {
		t.Fatalf("%s: AppendFingerprint does not append to its argument", what)
	}
}

// TestAppendFingerprintMatchesFmt holds the strconv rendering to the fmt
// one on the values the verbs treat specially.
func TestAppendFingerprintMatchesFmt(t *testing.T) {
	scores := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125, 1e16, 1e17, 1e21, 1e-4, 1e-5, 5e-324,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1), 12345678901234567890,
	}
	var causes []core.Cause
	for i, s := range scores {
		c := core.Cause{Comp: fmt.Sprintf("nf%d", i), Kind: core.CulpritKind(i % 3), Score: s, At: simtime.Time(i*1000 - 500)}
		switch i % 3 {
		case 1:
			c.CulpritJourneys = []int{}
		case 2:
			c.CulpritJourneys = []int{i, 0, -i, 1 << 40}
		}
		causes = append(causes, c)
	}
	full := &pipeline.Result{
		Degradation:     resilience.NoPatterns,
		ContainedPanics: 3,
		Relations:       7,
		Health: tracestore.Health{
			Records: 1234, Journeys: 56,
			Integrity: collector.Integrity{DroppedRecords: 2, DecodeSkipped: 1, TruncatedRecords: 4},
			Recon:     tracestore.ReconStats{Matched: 997, Unmatched: 3, Quarantined: 5},
		},
		Victims: []core.Victim{
			{Journey: 0, Comp: "fw1", Kind: core.VictimLatency, ArriveAt: 12345, QueueDelay: 678},
			{Journey: 41, Comp: "", Kind: core.VictimLoss, ArriveAt: -1, QueueDelay: 0},
			{Journey: 7, Comp: "nat", Kind: core.VictimKind(2), ArriveAt: math.MaxInt64, QueueDelay: math.MinInt64},
		},
		Diagnoses: []core.Diagnosis{{Causes: causes[:5]}, {}, {Causes: causes[5:]}},
		Patterns: []patterns.Pattern{
			{Score: 12.5},
			{Score: math.NaN()},
		},
	}
	checkFingerprint(t, "special values", full)
	checkFingerprint(t, "zero result", &pipeline.Result{})
	checkFingerprint(t, "unknown level", &pipeline.Result{Degradation: resilience.Level(9)})
	checkFingerprint(t, "healthy, no victims", &pipeline.Result{Health: tracestore.Health{
		Records: 10, Journeys: 2, Recon: tracestore.ReconStats{Matched: 40, Unmatched: 1},
	}})
}

// TestAppendFingerprintOnPipelineResults holds the two renderings together
// on what the determinism and equivalence suites fingerprint: a cold run
// with patterns on, and every window of an incremental stream with its
// cold rebuild.
func TestAppendFingerprintOnPipelineResults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 16-NF topology; skipped in -short")
	}
	dur := 20 * simtime.Millisecond
	if raceEnabled {
		dur = 8 * simtime.Millisecond
	}
	tr := buildTrace(7, dur)
	cfg := pipeline.Config{Diagnosis: core.Config{MaxVictims: 200, Workers: 4}, Patterns: patterns.Config{Workers: 4}}
	cold := pipeline.Run(tr, cfg)
	if len(cold.Diagnoses) == 0 || len(cold.Patterns) == 0 {
		t.Fatalf("cold run has %d diagnoses and %d patterns; the check is vacuous", len(cold.Diagnoses), len(cold.Patterns))
	}
	checkFingerprint(t, "cold run", cold)

	w, o := 5*simtime.Millisecond, simtime.Millisecond
	ss, err := pipeline.NewStreamState(tr.Meta, w, o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tracestore.NewRecorder(ss.Stream())
	ctx := context.Background()
	last := tr.Records[len(tr.Records)-1].At
	from := 0
	for end := simtime.Time(w); end <= last+simtime.Time(w); end += simtime.Time(w) {
		to := from
		for to < len(tr.Records) && tr.Records[to].At <= end {
			to++
		}
		inc, err := ss.RunWindow(ctx, end, resilience.Full, tr.Records[from:to])
		if err != nil {
			t.Fatal(err)
		}
		from = to
		checkFingerprint(t, fmt.Sprintf("window %v", end), inc)
		ref, err := pipeline.RunStoreContext(ctx, rec.Rebuild(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkFingerprint(t, fmt.Sprintf("rebuilt window %v", end), ref)
	}
}

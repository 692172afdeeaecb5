package pipeline_test

import (
	"context"
	"testing"

	"microscope/internal/core"
	"microscope/internal/obs"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
)

// TestStreamSpansEqualFlat: RunWindow ignores records the stream has
// already sealed, so a caller passing every record so far — the sealed
// prefix and the window's new records in one slice — gets each window's
// fingerprint and the stream's stats exactly as a caller passing only the
// window's new records does.
func TestStreamSpansEqualFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 16-NF topology; skipped in -short")
	}
	tr := buildTrace(5, 12*simtime.Millisecond)
	const w, o = 2 * simtime.Millisecond, simtime.Millisecond
	cfg := pipeline.Config{Diagnosis: core.Config{MaxVictims: 200, Workers: 2}, Patterns: patterns.Config{Workers: 2}}
	newState := func() *pipeline.StreamState {
		ss, err := pipeline.NewStreamState(tr.Meta, w, o, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	flat, whole := newState(), newState()
	ctx := context.Background()
	lo, withVictims := 0, 0
	for end := simtime.Time(w); end <= simtime.Time(14*simtime.Millisecond); end += simtime.Time(w) {
		hi := lo
		for hi < len(tr.Records) && tr.Records[hi].At <= end {
			hi++
		}
		fresh := tr.Records[lo:hi]
		want, err := flat.RunWindow(ctx, end, resilience.Full, fresh)
		if err != nil {
			t.Fatal(err)
		}
		got, err := whole.RunWindow(ctx, end, resilience.Full, tr.Records)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("window ending %d: the whole trace differs from the window's own records\n--- whole ---\n%s\n--- window ---\n%s",
				end, got.Fingerprint(), want.Fingerprint())
		}
		if len(want.Victims) > 0 {
			withVictims++
		}
		lo = hi
	}
	if withVictims < 3 {
		t.Fatalf("only %d windows with victims — trace too quiet for the comparison to mean anything", withVictims)
	}
	if fs, ws := flat.Stats(), whole.Stats(); fs != ws {
		t.Fatalf("stream stats differ:\n whole  %+v\n window %+v", ws, fs)
	}
}

// TestStreamHeapGauge: with a registry attached every window publishes the
// live heap (read through runtime/metrics, which does not stop the world)
// on microscope_stream_heap_bytes.
func TestStreamHeapGauge(t *testing.T) {
	reg := obs.New()
	ss, err := pipeline.NewStreamState(chainMeta(), 1000, 200, pipeline.Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.RunWindow(context.Background(), 1000, resilience.Skipped, nil); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge("microscope_stream_heap_bytes").Value(); v <= 0 {
		t.Fatalf("microscope_stream_heap_bytes = %d after a window, want the live heap size", v)
	}
}

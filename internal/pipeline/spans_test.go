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

// TestStreamSpansEqualFlat: RunWindow takes a window's new records as the
// consecutive spans of one sequence — the monitor's ring hands over its
// two backing slices, split wherever the ring happens to wrap. However a
// window is cut into spans, and whether or not the caller also passes the
// already-sealed prefix, every window's fingerprint is that of the same
// records passed as one slice.
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
	flat, split, whole := newState(), newState(), newState()
	ctx := context.Background()
	lo, n, withVictims := 0, 0, 0
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
		// Three spans, cut at points that move from window to window
		// (the middle one sometimes empty).
		a := len(fresh) * (n % 4) / 4
		b := a + (len(fresh)-a)*(n%3)/3
		got, err := split.RunWindow(ctx, end, resilience.Full, fresh[:a], fresh[a:b], fresh[b:])
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("window ending %d: spans cut at %d and %d of %d differ from the flat slice\n--- spans ---\n%s\n--- flat ---\n%s",
				end, a, b, len(fresh), got.Fingerprint(), want.Fingerprint())
		}
		// Sealed prefix and all, in two spans.
		got, err = whole.RunWindow(ctx, end, resilience.Full, tr.Records[:lo], tr.Records[lo:])
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("window ending %d: whole-trace spans differ from the window's own records", end)
		}
		if len(want.Victims) > 0 {
			withVictims++
		}
		lo, n = hi, n+1
	}
	if withVictims < 3 {
		t.Fatalf("only %d windows with victims — trace too quiet for the comparison to mean anything", withVictims)
	}
	if fs, ss := flat.Stats(), split.Stats(); fs != ss {
		t.Fatalf("stream stats differ:\n spans %+v\n flat  %+v", ss, fs)
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
	if _, err := ss.RunWindow(context.Background(), 1000, resilience.Skipped); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge("microscope_stream_heap_bytes").Value(); v <= 0 {
		t.Fatalf("microscope_stream_heap_bytes = %d after a window, want the live heap size", v)
	}
}

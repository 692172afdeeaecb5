package tracestore_test

import (
	"context"
	"slices"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/packet"
	"microscope/internal/pipeline"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// TestPoisonedInputAfterSeal: nothing a stream keeps points into its input.
// Two streams advance over the same windows; after each Advance one of them
// has every input record's time, component, queue and payload bytes
// overwritten. Every window must still diagnose byte-identically to the
// untouched stream's — the windows that hold segments sealed many slides
// ago as well as the newest.
func TestPoisonedInputAfterSeal(t *testing.T) {
	meta, recs := chainRecords(t, 3, 40*simtime.Millisecond)
	const w, o = simtime.Millisecond, 4 * simtime.Millisecond
	clean, err := tracestore.NewStream(meta, tracestore.StreamConfig{Window: w, Overlap: o})
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := tracestore.NewStream(meta, tracestore.StreamConfig{Window: w, Overlap: o})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{SkipPatterns: true, Diagnosis: core.Config{MaxVictims: 60, Workers: 1}}
	diagnose := func(s *tracestore.Stream, end simtime.Time) *pipeline.Result {
		st, _ := s.Window(end)
		res, err := pipeline.RunStoreContext(context.Background(), st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	from, victims := 0, 0
	for end := simtime.Time(w); from < len(recs); end += simtime.Time(w) {
		to := from
		for to < len(recs) && recs[to].At <= end {
			to++
		}
		clean.Advance(end, recs[from:to])
		input := deepCopy(recs[from:to])
		poisoned.Advance(end, input)
		poison(input)
		from = to
		ref := diagnose(clean, end)
		want := ref.Fingerprint()
		if got := diagnose(poisoned, end).Fingerprint(); got != want {
			t.Fatalf("window ending %v: poisoning the sealed input changed the report\n--- poisoned ---\n%s\n--- clean ---\n%s", end, got, want)
		}
		victims += len(ref.Diagnoses)
	}
	if victims == 0 {
		t.Fatal("no victims in any window; the check is vacuous")
	}
}

// deepCopy copies recs with payloads of their own.
func deepCopy(recs []collector.BatchRecord) []collector.BatchRecord {
	out := slices.Clone(recs)
	for i := range out {
		out[i].IPIDs = slices.Clone(out[i].IPIDs)
		out[i].Tuples = slices.Clone(out[i].Tuples)
	}
	return out
}

// poison overwrites everything a record holds.
func poison(recs []collector.BatchRecord) {
	for i := range recs {
		r := &recs[i]
		r.At = -1
		r.Comp, r.Queue = "poison", "poison.in"
		for k := range r.IPIDs {
			r.IPIDs[k] = 0xdead
		}
		for k := range r.Tuples {
			r.Tuples[k] = packet.FiveTuple{SrcIP: 0xdeadbeef, DstIP: 0xdeadbeef, SrcPort: 0xdead, DstPort: 0xdead, Proto: 0xff}
		}
	}
}

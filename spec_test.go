package microscope

import (
	"bytes"
	"math/rand"
	"testing"

	"microscope/internal/resilience"
	"microscope/internal/spec"
)

// randOptions draws a random spec-expressible Options value (Metrics is a
// runtime handle outside the data domain).
func randOptions(rng *rand.Rand) Options {
	return Options{
		VictimPercentile:        float64(rng.Intn(1000)) / 10, // [0,100)
		MaxRecursionDepth:       rng.Intn(10),
		MaxVictims:              rng.Intn(1000),
		PatternThreshold:        float64(rng.Intn(101)) / 100, // [0,1]
		SkipLossVictims:         rng.Intn(2) == 0,
		LossVictimsWhenDegraded: rng.Intn(2) == 0,
		Workers:                 rng.Intn(16),
		QueueThreshold:          rng.Intn(8),
		SkipPatterns:            rng.Intn(2) == 0,
		Degrade:                 DegradationLevel(rng.Intn(4)),
		ContainPanics:           rng.Intn(2) == 0,
	}
}

// randSpec draws a random valid spec exercising every section.
func randSpec(rng *rand.Rand) *PipelineSpec {
	s := SpecFromOptions(randOptions(rng))
	s.Tenant = []string{"", "acme", "beta"}[rng.Intn(3)]
	slide := spec.Duration((rng.Intn(20) + 1) * 10_000_000) // 10–200ms
	s.Stream = spec.StreamSpec{
		Slide:    slide,
		Overlap:  slide / spec.Duration(rng.Intn(4)+2),
		MinScore: float64(rng.Intn(500)),
	}
	s.Resilience = spec.ResilienceSpec{
		RingCapacity: rng.Intn(3) * 4096,
		ShedPolicy:   []string{"", "drop-oldest", "reject-new"}[rng.Intn(3)],
		MaxMemBytes:  int64(rng.Intn(2)) << 20,
	}
	if rng.Intn(3) == 0 {
		s.Resilience.Retry = &spec.RetrySpec{MaxAttempts: rng.Intn(5), Seed: rng.Int63n(100)}
	}
	if rng.Intn(2) == 0 {
		s.Topology = &spec.TopologySpec{
			Components: []spec.ComponentSpec{
				{Name: "src", Kind: "source"},
				{Name: "fw", Kind: "fw", PeakRate: float64(rng.Intn(5)+1) * 1e5, Egress: true},
			},
			Edges: []spec.EdgeSpec{{From: "src", To: "fw"}},
		}
	}
	if rng.Intn(2) == 0 {
		s.Hooks = []spec.HookSpec{{
			Name: "h1", Type: "exec", Command: []string{"true"},
			MinScore: float64(rng.Intn(100)),
		}}
	}
	return s
}

// TestSpecOptionsRoundTripProperty is the lossless round-trip contract in
// both directions, over randomized inputs:
//
//	Options → spec → Options is the identity on every Options value, and
//	spec → Options → (merge back) is the identity on resolved specs.
func TestSpecOptionsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		o := randOptions(rng)
		if back := OptionsFromSpec(SpecFromOptions(o)); back != o {
			t.Fatalf("iteration %d: Options drifted through spec:\n got %+v\nwant %+v", i, back, o)
		}

		s := randSpec(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("iteration %d: generator produced an invalid spec: %v", i, err)
		}
		r := s.Resolved()
		merged := MergeOptions(r, OptionsFromSpec(r))
		rb, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		mb, err := merged.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rb, mb) {
			t.Fatalf("iteration %d: resolved spec drifted through Options:\n--- resolved ---\n%s\n--- merged ---\n%s", i, rb, mb)
		}
	}
}

// TestWithSpec: the spec option replaces every spec-expressible field,
// preserves an attached registry, and produces reports byte-identical to
// the equivalent explicit options.
func TestWithSpec(t *testing.T) {
	s := SpecFromOptions(Options{VictimPercentile: 95, MaxVictims: 150, Workers: 4})
	reg := NewRegistry()
	o := resolve([]Option{WithObserver(reg), WithMaxVictims(7), WithSpec(s)})
	if o.Metrics != reg {
		t.Fatal("WithSpec dropped the attached registry")
	}
	if o.MaxVictims != 150 || o.VictimPercentile != 95 || o.Workers != 4 {
		t.Fatalf("WithSpec did not apply the spec wholesale: %+v", o)
	}

	tr := optionsTrace(t)
	specRep := Diagnose(tr, WithSpec(s))
	optRep := Diagnose(tr, WithVictimPercentile(95), WithMaxVictims(150), WithWorkers(4))
	if len(specRep.Diagnoses) == 0 {
		t.Fatal("no victims diagnosed; equivalence check is vacuous")
	}
	if a, b := reportText(specRep), reportText(optRep); a != b {
		t.Fatalf("WithSpec and explicit options reports differ:\n--- spec ---\n%s\n--- options ---\n%s", a, b)
	}
}

// TestParseSpecFacade: the facade re-exports reject invalid documents with
// field-path errors and accept the degraded-rung vocabulary.
func TestParseSpecFacade(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"stages":{"run":"warp"}}`)); err == nil {
		t.Fatal("ParseSpec accepted an unknown rung")
	}
	s, err := ParseSpec([]byte(`{"stages":{"run":"victims-only"},"diagnosis":{"workers":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	o := OptionsFromSpec(s)
	if o.Degrade != resilience.VictimsOnly || o.Workers != 2 {
		t.Fatalf("OptionsFromSpec = %+v", o)
	}
}

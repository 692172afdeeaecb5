package microscope

import (
	"testing"

	"microscope/internal/resilience"
)

// TestWithSpec: the spec option replaces every spec-expressible field,
// preserves an attached registry, and produces reports byte-identical to
// the equivalent explicit options.
func TestWithSpec(t *testing.T) {
	s := &PipelineSpec{}
	s.Diagnosis.VictimPercentile, s.Diagnosis.MaxVictims, s.Diagnosis.Workers = 95, 150, 4
	reg := NewRegistry()
	c := resolve([]Option{WithObserver(reg), WithMaxVictims(7), WithPanicContainment(), WithSpec(s)})
	if c.reg != reg {
		t.Fatal("WithSpec dropped the attached registry")
	}
	if c.spec.Stages != s.Stages || c.spec.Diagnosis != s.Diagnosis {
		t.Fatalf("WithSpec did not apply the spec wholesale: %+v", c.spec)
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
	c := resolve([]Option{WithSpec(s)})
	if pc := c.pipelineConfig(); pc.Degrade != resilience.VictimsOnly || pc.Diagnosis.Workers != 2 {
		t.Fatalf("WithSpec(ParseSpec(...)) lowered to %+v", pc)
	}
}

package microscope

import (
	"testing"

	"microscope/internal/pipeline"
	"microscope/internal/resilience"
)

// TestWithSpec: the spec option replaces every spec-expressible field an
// earlier spec set, preserves an attached registry, and produces reports
// byte-identical to the pipeline run on the spec's own lowering.
func TestWithSpec(t *testing.T) {
	s, earlier := &PipelineSpec{}, &PipelineSpec{}
	s.Diagnosis.VictimPercentile, s.Diagnosis.MaxVictims, s.Diagnosis.Workers = 95, 150, 4
	earlier.Diagnosis.MaxVictims, earlier.Stages.ContainPanics = 7, true
	reg := NewRegistry()
	c := resolve([]Option{WithObserver(reg), WithSpec(earlier), WithSpec(s)})
	if c.reg != reg {
		t.Fatal("WithSpec dropped the attached registry")
	}
	if c.spec.Stages != s.Stages || c.spec.Diagnosis != s.Diagnosis {
		t.Fatalf("WithSpec did not apply the spec wholesale: %+v", c.spec)
	}

	tr := optionsTrace(t)
	specRep := Diagnose(tr, WithSpec(s))
	lowered := reportFrom(pipeline.Run(tr, s.PipelineConfig(nil)))
	if len(specRep.Diagnoses) == 0 {
		t.Fatal("no victims diagnosed; equivalence check is vacuous")
	}
	if a, b := reportText(specRep), reportText(lowered); a != b {
		t.Fatalf("WithSpec and the spec's own lowering differ:\n--- WithSpec ---\n%s\n--- lowered ---\n%s", a, b)
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

package spec

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"microscope/internal/resilience"
	"microscope/internal/simtime"
)

// TestParseStrict: unknown fields, bad durations, and trailing documents
// are rejected — a typo never silently runs with defaults.
func TestParseStrict(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"version":1,"widnow":"1s"}`, "widnow"},
		{"unknown nested", `{"stream":{"slid":"1s"}}`, "slid"},
		// The retired window-engine toggle is an unknown field like any
		// other, named by its path.
		{"removed field", `{"stream":{"incremental":true}}`, "stream.incremental"},
		{"unknown in list", `{"hooks":[{"name":"h","type":"exec","command":["x"],"retires":1}]}`, "hooks[0].retires"},
		{"bad duration", `{"stream":{"slide":"fast"}}`, "invalid duration"},
		{"duration type", `{"stream":{"slide":true}}`, "duration"},
		{"trailing doc", `{"version":1}{"version":1}`, "trailing"},
		{"bad version", `{"version":7}`, "version"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.in))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Parse(%s) err = %v, want containing %q", c.in, err, c.wantErr)
			}
		})
	}
}

// TestValidateFieldPaths: every rejection names the JSON field path of the
// offending knob, and multiple failures are all reported.
func TestValidateFieldPaths(t *testing.T) {
	s := &PipelineSpec{
		Stages:    StagesSpec{Run: "turbo"},
		Diagnosis: DiagnosisSpec{VictimPercentile: 120, Workers: -1},
		Stream:    StreamSpec{Window: D(100 * time.Millisecond), Slide: D(90 * time.Millisecond), Overlap: D(20 * time.Millisecond)},
		Resilience: ResilienceSpec{
			ShedPolicy:   "yolo",
			MaxMemBytes:  10,
			SoftMemBytes: 20,
		},
		Topology: &TopologySpec{
			Components: []ComponentSpec{{Name: "a"}, {Name: "a"}},
			Edges:      []EdgeSpec{{From: "a", To: "ghost"}},
		},
		Hooks: []HookSpec{
			{Name: "", Type: "carrier-pigeon"},
			{Name: "h", Type: "webhook"},
			{Name: "h", Type: "exec"},
		},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("Validate accepted a spec with a dozen errors")
	}
	for _, want := range []string{
		"stages.run",
		"diagnosis.victim_percentile",
		"diagnosis.workers",
		"stream.window",
		"resilience.shed_policy",
		"resilience.soft_mem_bytes",
		"topology.components[1].name",
		"topology.edges[0].to",
		"hooks[0].name",
		"hooks[0].type",
		"hooks[1].url",
		"hooks[2].command",
		"hooks[2].name: duplicate",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing field path %q:\n%v", want, err)
		}
	}
}

// TestResolvedGeometry: any two of window/slide/overlap determine the
// third, and the monitor defaults fill an empty stream section.
func TestResolvedGeometry(t *testing.T) {
	ms := func(n int64) Duration { return D(time.Duration(n) * time.Millisecond) }
	cases := []struct {
		name                 string
		in                   StreamSpec
		slide, overlap, wind Duration
	}{
		{"empty", StreamSpec{}, ms(100), ms(20), ms(120)},
		{"slide+overlap", StreamSpec{Slide: ms(50), Overlap: ms(10)}, ms(50), ms(10), ms(60)},
		{"window+slide", StreamSpec{Window: ms(60), Slide: ms(50)}, ms(50), ms(10), ms(60)},
		{"window+overlap", StreamSpec{Window: ms(60), Overlap: ms(10)}, ms(50), ms(10), ms(60)},
		{"slide only", StreamSpec{Slide: ms(200)}, ms(200), ms(20), ms(220)},
		{"window only", StreamSpec{Window: ms(500)}, ms(480), ms(20), ms(500)},
		{"tiny window only", StreamSpec{Window: ms(10)}, ms(8), ms(2), ms(10)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &PipelineSpec{Stream: c.in}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			r := s.Resolved()
			if r.Stream.Slide != c.slide || r.Stream.Overlap != c.overlap || r.Stream.Window != c.wind {
				t.Fatalf("resolved geometry = slide %v overlap %v window %v, want %v %v %v",
					r.Stream.Slide, r.Stream.Overlap, r.Stream.Window, c.slide, c.overlap, c.wind)
			}
		})
	}
}

// TestResolvedIdempotent: resolving twice changes nothing, and the
// resolved encoding round-trips through Parse byte for byte.
func TestResolvedIdempotent(t *testing.T) {
	s := &PipelineSpec{
		Tenant:     "t1",
		Diagnosis:  DiagnosisSpec{MaxVictims: 50},
		Resilience: ResilienceSpec{RingCapacity: 4096, MaxMemBytes: 1 << 20},
		Topology: &TopologySpec{
			Components: []ComponentSpec{{Name: "src", Kind: "source"}, {Name: "fw", Kind: "fw", PeakRate: 1e6, Egress: true}},
			Edges:      []EdgeSpec{{From: "src", To: "fw"}},
		},
		Hooks: []HookSpec{{Name: "page", Type: "webhook", URL: "http://localhost:0/x"}},
	}
	r1 := s.Resolved()
	r2 := r1.Resolved()
	b1, err := r1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := r2.Encode()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("Resolved not idempotent:\n%s\nvs\n%s", b1, b2)
	}
	p, err := Parse(b1)
	if err != nil {
		t.Fatalf("resolved spec failed to re-parse: %v", err)
	}
	b3, _ := p.Encode()
	if !bytes.Equal(b1, b3) {
		t.Fatalf("encode/parse round-trip drifted:\n%s\nvs\n%s", b1, b3)
	}
	// Defaults landed.
	if r1.Stream.Slide != DefaultSlide || r1.Resilience.SoftMemBytes != 1<<19 {
		t.Errorf("defaults not applied: slide=%v soft=%d", r1.Stream.Slide, r1.Resilience.SoftMemBytes)
	}
	if r1.Resilience.Ladder == nil || r1.Resilience.Ladder.SoftRecords != 4096/8 {
		t.Errorf("auto ladder not derived: %+v", r1.Resilience.Ladder)
	}
	if r1.Hooks[0].Timeout != D(DefaultHookTimeout) || r1.Hooks[0].MaxFailures != DefaultHookMaxFailures {
		t.Errorf("hook defaults not applied: %+v", r1.Hooks[0])
	}
}

// TestDurationJSON: both accepted encodings, canonical string output.
func TestDurationJSON(t *testing.T) {
	in := `{"stream":{"slide":"250ms","overlap":5000000}}`
	s, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Stream.Slide != D(250*time.Millisecond) || s.Stream.Overlap != D(5*time.Millisecond) {
		t.Fatalf("parsed durations = %v, %v", s.Stream.Slide, s.Stream.Overlap)
	}
	b, _ := s.Encode()
	if !strings.Contains(string(b), `"slide": "250ms"`) || !strings.Contains(string(b), `"overlap": "5ms"`) {
		t.Fatalf("canonical encoding wrong:\n%s", b)
	}
}

// TestMonitorConfigConversion: a resolved spec's monitor config matches
// the knobs the spec stated, with slide mapped onto the monitor's flush
// cadence.
func TestMonitorConfigConversion(t *testing.T) {
	s := mustParse(t, `{
		"stages": {"run": "no-patterns", "contain_panics": true},
		"diagnosis": {"victim_percentile": 95, "workers": 4, "max_victims": 10},
		"stream": {"slide": "50ms", "overlap": "10ms", "min_score": 7},
		"resilience": {"ring_capacity": 1024, "shed_policy": "reject-new", "window_deadline": "2s"}
	}`).Resolved()
	cfg := s.MonitorConfig(nil)
	if cfg.Window != 50*simtime.Millisecond || cfg.Overlap != 10*simtime.Millisecond {
		t.Errorf("geometry: window=%v overlap=%v", cfg.Window, cfg.Overlap)
	}
	if cfg.MinScore != 7 || cfg.Diagnosis.Workers != 4 || cfg.MaxVictims != 10 {
		t.Errorf("knobs: %+v", cfg)
	}
	if cfg.Diagnosis.VictimPercentile != 95 {
		t.Errorf("core percentile = %g", cfg.Diagnosis.VictimPercentile)
	}
	rc := cfg.Resilience
	if rc.RingCapacity != 1024 || rc.Policy != resilience.ShedRejectNew ||
		rc.WindowDeadline != 2*time.Second || !rc.ContainPanics {
		t.Errorf("resilience: %+v", rc)
	}
	if rc.Ladder != resilience.AutoLadder(1024) {
		t.Errorf("ladder = %+v, want auto(1024)", rc.Ladder)
	}
	if s.Rung() != resilience.NoPatterns {
		t.Errorf("rung = %v", s.Rung())
	}
	pc := s.PipelineConfig(nil)
	if pc.Degrade != resilience.NoPatterns || !pc.ContainPanics {
		t.Errorf("pipeline config: %+v", pc)
	}
}

// TestMetaRoundTrip: topology ⇄ collector.Meta is lossless.
func TestMetaRoundTrip(t *testing.T) {
	s := mustParse(t, `{"topology":{
		"components":[
			{"name":"src","kind":"source"},
			{"name":"nat","kind":"nat","peak_rate":2000000},
			{"name":"fw","kind":"fw","peak_rate":1500000,"egress":true}],
		"edges":[{"from":"src","to":"nat"},{"from":"nat","to":"fw"}]}}`)
	m, ok := s.Meta()
	if !ok {
		t.Fatal("Meta() missing")
	}
	if len(m.Components) != 3 || m.MaxBatch != 32 {
		t.Fatalf("meta = %+v", m)
	}
	if m.Components[1].PeakRate != 2e6 || !m.Components[2].Egress {
		t.Fatalf("component fields lost: %+v", m.Components)
	}
	back := FromMeta(m)
	if len(back.Components) != 3 || len(back.Edges) != 2 || back.MaxBatch != 32 {
		t.Fatalf("FromMeta = %+v", back)
	}
	if back.Components[1] != s.Topology.Components[1] {
		t.Fatalf("round-trip drift: %+v vs %+v", back.Components[1], s.Topology.Components[1])
	}
	if _, ok := (&PipelineSpec{}).Meta(); ok {
		t.Fatal("empty spec must not claim a topology")
	}
}

// TestCloneIsolation: mutating a clone never touches the original.
func TestCloneIsolation(t *testing.T) {
	s := mustParse(t, `{
		"resilience": {"ladder": {"soft_records": 5}, "retry": {"max_attempts": 2}},
		"topology": {"components": [{"name": "a"}]},
		"hooks": [{"name": "h", "type": "exec", "command": ["true"]}]
	}`)
	c := s.Clone()
	c.Resilience.Ladder.SoftRecords = 99
	c.Resilience.Retry.MaxAttempts = 99
	c.Topology.Components[0].Name = "z"
	c.Hooks[0].Command[0] = "false"
	if s.Resilience.Ladder.SoftRecords != 5 ||
		s.Resilience.Retry.MaxAttempts != 2 || s.Topology.Components[0].Name != "a" ||
		s.Hooks[0].Command[0] != "true" {
		t.Fatalf("clone aliases original: %+v", s)
	}
}

func mustParse(t *testing.T, in string) *PipelineSpec {
	t.Helper()
	s, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

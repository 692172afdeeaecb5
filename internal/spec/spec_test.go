package spec

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"microscope/internal/core"
	"microscope/internal/online"
	"microscope/internal/pipeline"
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
	if r1.Stream.Slide != Duration(online.DefaultWindow) || r1.Resilience.SoftMemBytes != 1<<19 {
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
	if cfg.MinScore != 7 || cfg.Diagnosis.Workers != 4 || cfg.Diagnosis.MaxVictims != 10 {
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
	if pc.Degrade != resilience.NoPatterns || !pc.Diagnosis.ContainPanics {
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

// randSpec draws a random valid spec exercising every section.
func randSpec(rng *rand.Rand) *PipelineSpec {
	s := &PipelineSpec{
		Version: Version,
		Tenant:  []string{"", "acme", "beta"}[rng.Intn(3)],
		Stages: StagesSpec{
			Run:           RungString(resilience.Level(rng.Intn(4))),
			ContainPanics: rng.Intn(2) == 0,
		},
		Diagnosis: DiagnosisSpec{
			VictimPercentile:        float64(rng.Intn(1000)) / 10, // [0,100)
			MaxRecursionDepth:       rng.Intn(10),
			MaxVictims:              rng.Intn(1000),
			PatternThreshold:        float64(rng.Intn(101)) / 100, // [0,1]
			QueueThreshold:          rng.Intn(8),
			SkipLossVictims:         rng.Intn(2) == 0,
			LossVictimsWhenDegraded: rng.Intn(2) == 0,
			Workers:                 rng.Intn(16),
		},
	}
	slide := Duration((rng.Intn(20) + 1) * 10_000_000) // 10–200ms
	s.Stream = StreamSpec{
		Slide:    slide,
		Overlap:  slide / Duration(rng.Intn(4)+2),
		MinScore: float64(rng.Intn(500)),
	}
	s.Resilience = ResilienceSpec{
		RingCapacity: rng.Intn(3) * 4096,
		ShedPolicy:   []string{"", "drop-oldest", "reject-new"}[rng.Intn(3)],
		MaxMemBytes:  int64(rng.Intn(2)) << 20,
	}
	if rng.Intn(3) == 0 {
		s.Resilience.Retry = &RetrySpec{MaxAttempts: rng.Intn(5), Seed: rng.Int63n(100)}
	}
	if rng.Intn(2) == 0 {
		s.Topology = &TopologySpec{
			Components: []ComponentSpec{
				{Name: "src", Kind: "source"},
				{Name: "fw", Kind: "fw", PeakRate: float64(rng.Intn(5)+1) * 1e5, Egress: true},
			},
			Edges: []EdgeSpec{{From: "src", To: "fw"}},
		}
	}
	if rng.Intn(2) == 0 {
		s.Hooks = []HookSpec{{
			Name: "h1", Type: "exec", Command: []string{"true"},
			MinScore: float64(rng.Intn(100)),
		}}
	}
	return s
}

// TestSpecRoundTripProperty: over random valid specs, a resolved spec
// survives encode → parse → resolve byte for byte.
func TestSpecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		s := randSpec(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("iteration %d: generator produced an invalid spec: %v", i, err)
		}
		rb, err := s.Resolved().Encode()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Parse(rb)
		if err != nil {
			t.Fatalf("iteration %d: resolved spec failed to parse: %v\n%s", i, err, rb)
		}
		pb, err := p.Resolved().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rb, pb) {
			t.Fatalf("iteration %d: resolved spec drifted through encode/parse:\n--- resolved ---\n%s\n--- reparsed ---\n%s", i, rb, pb)
		}
	}
}

// lowered is a spec lowered through every converter.
type lowered struct {
	CoreConfig       core.Config
	PipelineConfig   pipeline.Config
	MonitorConfig    online.Config
	ResilienceConfig resilience.Config
	RetryPolicy      resilience.RetryPolicy
}

func lower(s *PipelineSpec) lowered {
	r := s.Resolved()
	return lowered{r.CoreConfig(nil), r.PipelineConfig(nil), r.MonitorConfig(nil), r.ResilienceConfig(), r.RetryPolicy()}
}

// specLeaves lists the JSON paths of every scalar field under t, looking
// through pointers to structs.
func specLeaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, specLeaves(ft, prefix+tag+".")...)
		} else {
			out = append(out, prefix+tag)
		}
	}
	return out
}

// specField returns the field at a JSON path, allocating nil pointers on
// the way.
func specField(v reflect.Value, path string) reflect.Value {
	for _, name := range strings.Split(path, ".") {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if tag, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); tag == name {
				v = v.Field(i)
				break
			}
		}
	}
	return v
}

// TestEverySpecFieldIsLowered: every knob of the sections the converters
// read reaches exactly the lowered configs that must carry it. Each leaf
// is set alone to a valid non-default value on an empty spec, and the
// configs whose lowering changed must be the ones the table names.
func TestEverySpecFieldIsLowered(t *testing.T) {
	const (
		coreC = "CoreConfig"
		pipeC = "PipelineConfig"
		monC  = "MonitorConfig"
		resC  = "ResilienceConfig"
		retC  = "RetryPolicy"
	)
	diag := []string{coreC, pipeC, monC}
	res := []string{resC, monC}
	table := map[string]struct {
		val  any
		into []string
	}{
		"stages.run":            {RungVictimsOnly, []string{pipeC}},
		"stages.contain_panics": {true, []string{coreC, pipeC, monC, resC}},

		"diagnosis.victim_percentile":          {95.0, diag},
		"diagnosis.max_recursion_depth":        {3, diag},
		"diagnosis.max_victims":                {7, diag},
		"diagnosis.pattern_threshold":          {0.2, []string{pipeC}},
		"diagnosis.queue_threshold":            {4, diag},
		"diagnosis.skip_loss_victims":          {true, diag},
		"diagnosis.loss_victims_when_degraded": {true, diag},
		"diagnosis.workers":                    {3, diag},

		"stream.window":        {D(500 * time.Millisecond), []string{monC}},
		"stream.slide":         {D(50 * time.Millisecond), []string{monC}},
		"stream.overlap":       {D(5 * time.Millisecond), []string{monC}},
		"stream.min_score":     {7.0, []string{monC}},
		"stream.hold_off":      {D(time.Millisecond), []string{monC}},
		"stream.max_lookahead": {D(time.Second), []string{monC}},
		"stream.resync_after":  {3, []string{monC}},

		"resilience.ring_capacity":       {1024, res},
		"resilience.shed_policy":         {"reject-new", res},
		"resilience.window_deadline":     {D(time.Second), res},
		"resilience.max_mem_bytes":       {int64(1 << 20), res},
		"resilience.soft_mem_bytes":      {int64(1 << 19), res},
		"resilience.ladder.soft_records": {10, res},
		"resilience.ladder.hard_records": {20, res},
		"resilience.ladder.max_records":  {30, res},
		"resilience.ladder.soft_backlog": {1, res},
		"resilience.ladder.hard_backlog": {2, res},
		"resilience.retry.max_attempts":  {3, []string{retC}},
		"resilience.retry.base":          {D(time.Millisecond), []string{retC}},
		"resilience.retry.max":           {D(time.Second), []string{retC}},
		"resilience.retry.jitter":        {0.5, []string{retC}},
		"resilience.retry.seed":          {int64(9), []string{retC}},
	}
	// Read elsewhere, not by the converters: the version gates Parse, the
	// tenant names a serving-tier tenant, the topology is lowered by Meta,
	// and hooks are run by the serving tier's hook runner.
	exempt := map[string]bool{"version": true, "tenant": true, "topology": true, "hooks": true}

	seen := make(map[string]bool)
	st := reflect.TypeOf(PipelineSpec{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if exempt[tag] {
			continue
		}
		if f.Type.Kind() != reflect.Struct {
			t.Errorf("%s: top-level spec field neither lowered nor exempt", tag)
			continue
		}
		for _, path := range specLeaves(f.Type, tag+".") {
			seen[path] = true
			want, ok := table[path]
			if !ok {
				t.Errorf("%s: spec field missing from the lowering table", path)
				continue
			}
			var s PipelineSpec
			specField(reflect.ValueOf(&s).Elem(), path).Set(reflect.ValueOf(want.val))
			if err := s.Validate(); err != nil {
				t.Errorf("%s: table value is invalid: %v", path, err)
				continue
			}
			base, got := reflect.ValueOf(lower(&PipelineSpec{})), reflect.ValueOf(lower(&s))
			var changed []string
			for j := 0; j < base.NumField(); j++ {
				if !reflect.DeepEqual(base.Field(j).Interface(), got.Field(j).Interface()) {
					changed = append(changed, base.Type().Field(j).Name)
				}
			}
			wantInto := slices.Clone(want.into)
			slices.Sort(changed)
			slices.Sort(wantInto)
			if !slices.Equal(changed, wantInto) {
				t.Errorf("%s = %v reaches %v, want %v", path, want.val, changed, wantInto)
			}
		}
	}
	for path := range table {
		if !seen[path] {
			t.Errorf("%s: table names a field the spec does not have", path)
		}
	}
}

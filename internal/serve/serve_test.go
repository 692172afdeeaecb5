package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"microscope/internal/collector"
	"microscope/internal/leakcheck"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/spec"
	"microscope/internal/traffic"
)

// chainTrace simulates a 2-NF chain with the given seed and interrupt
// times and returns the collected trace. Distinct seeds produce distinct
// flows, so tenants built from different seeds have genuinely different
// workloads.
func chainTrace(t testing.TB, seed int64, interrupts []simtime.Time) *collector.Trace {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, seed,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
	)
	iv := simtime.MPPS(0.4).Interval()
	var ems []traffic.Emission
	i := 0
	for tt := simtime.Time(0); tt < simtime.Time(500*simtime.Millisecond); tt = tt.Add(iv) {
		ems = append(ems, traffic.Emission{
			At: tt,
			Flow: packet.FiveTuple{
				SrcIP:   packet.IPFromOctets(10, byte(seed), 0, byte(i%50)),
				DstIP:   packet.IPFromOctets(23, 0, 0, 1),
				SrcPort: uint16(1024 + i%50), DstPort: 80, Proto: packet.ProtoTCP,
			},
			Size: 64, Burst: -1,
		})
		i++
	}
	sim.LoadSchedule(&traffic.Schedule{Emissions: ems})
	for _, at := range interrupts {
		sim.InjectInterrupt("fw1", at, 900*simtime.Microsecond, "serve")
	}
	sim.Run(simtime.Time(600 * simtime.Millisecond))
	return col.Trace(collector.MetaForChain(sim, []string{"nat1", "fw1"}))
}

// tenantSpec builds a valid spec whose topology matches chainTrace's
// deployment; mod customizes it.
func tenantSpec(tr *collector.Trace, mod func(*spec.PipelineSpec)) *spec.PipelineSpec {
	s := &spec.PipelineSpec{
		Version:  spec.Version,
		Topology: spec.FromMeta(tr.Meta),
	}
	if mod != nil {
		mod(s)
	}
	return s
}

// feedAll pushes a trace into a tenant in chunks, backing off on
// backpressure exactly like a well-behaved HTTP client would on 429.
func feedAll(t testing.TB, tn *Tenant, recs []collector.BatchRecord, chunk int) {
	t.Helper()
	for i := 0; i < len(recs); i += chunk {
		end := i + chunk
		if end > len(recs) {
			end = len(recs)
		}
		for {
			err := tn.Enqueue(recs[i:end])
			if err == nil {
				break
			}
			if errors.Is(err, ErrBackpressure) {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			t.Fatalf("enqueue: %v", err)
		}
	}
}

// flushAll flushes a tenant, resending the flush while the ingest queue
// is full, as a client resends a POST /flush refused with 429.
func flushAll(t testing.TB, tn *Tenant) {
	t.Helper()
	for {
		err := tn.Flush(context.Background())
		if err == nil {
			return
		}
		if !errors.Is(err, ErrBackpressure) {
			t.Fatalf("flush: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeHTTPLifecycle drives the full tenant lifecycle over real HTTP:
// create from a spec document, ingest JSON records, flush, read reports
// and alerts, scrape metrics, update, delete.
func TestServeHTTPLifecycle(t *testing.T) {
	tr := chainTrace(t, 3, []simtime.Time{simtime.Time(150 * simtime.Millisecond)})
	srv := NewServer(ServerConfig{})
	hs := httptest.NewServer(Handler(srv))
	defer hs.Close()
	client := hs.Client()

	sp := tenantSpec(tr, func(s *spec.PipelineSpec) { s.Tenant = "acme" })
	body, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Create via POST /tenants (id from spec.tenant).
	resp := doReq(t, client, http.MethodPost, hs.URL+"/tenants", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s: %s", resp.Status, readBody(t, resp))
	}
	// Duplicate create is rejected.
	resp = doReq(t, client, http.MethodPost, hs.URL+"/tenants", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate create: %s", resp.Status)
	}
	// Invalid spec gets a field-path error.
	resp = doReq(t, client, http.MethodPut, hs.URL+"/tenants/bad", []byte(`{"diagnosis":{"victim_percentile":120}}`))
	if b := readBody(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(b, "diagnosis.victim_percentile") {
		t.Fatalf("invalid spec: %s: %s", resp.Status, b)
	}

	// Ingest the trace as JSON chunks.
	const chunk = 20000
	for i := 0; i < len(tr.Records); i += chunk {
		end := i + chunk
		if end > len(tr.Records) {
			end = len(tr.Records)
		}
		rb, err := json.Marshal(tr.Records[i:end])
		if err != nil {
			t.Fatal(err)
		}
		for {
			resp = doReq(t, client, http.MethodPost, hs.URL+"/tenants/acme/records", rb)
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Fatal("429 without Retry-After")
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				time.Sleep(time.Millisecond)
				continue
			}
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest: %s: %s", resp.Status, readBody(t, resp))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp = doReq(t, client, http.MethodPost, hs.URL+"/tenants/acme/flush", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("flush: %s", resp.Status)
	}

	// Latest report.
	resp = doReq(t, client, http.MethodGet, hs.URL+"/tenants/acme/report", nil)
	var rep WindowReport
	mustDecode(t, resp, http.StatusOK, &rep)
	if rep.Fingerprint == "" || rep.Degradation != "full" {
		t.Fatalf("report: %+v", rep)
	}
	// Windowed reports.
	resp = doReq(t, client, http.MethodGet, hs.URL+"/tenants/acme/reports?n=3", nil)
	var reps []WindowReport
	mustDecode(t, resp, http.StatusOK, &reps)
	if len(reps) == 0 || len(reps) > 3 {
		t.Fatalf("reports: %d", len(reps))
	}
	// Alerts: the interrupt must have surfaced.
	resp = doReq(t, client, http.MethodGet, hs.URL+"/tenants/acme/alerts", nil)
	var alerts []alertJSON
	mustDecode(t, resp, http.StatusOK, &alerts)
	if len(alerts) == 0 || alerts[0].Comp != "fw1" {
		t.Fatalf("alerts: %+v", alerts)
	}

	// Per-tenant metrics carry the tenant label; the global scrape has
	// both server and tenant series.
	if b := readBody(t, doReq(t, client, http.MethodGet, hs.URL+"/tenants/acme/metrics", nil)); !strings.Contains(b, `microscope_monitor_records_total{tenant="acme"}`) {
		t.Fatalf("tenant metrics missing labeled series:\n%s", b)
	}
	if b := readBody(t, doReq(t, client, http.MethodGet, hs.URL+"/metrics", nil)); !strings.Contains(b, "microscope_serve_tenants 1") ||
		!strings.Contains(b, `{tenant="acme"}`) {
		t.Fatalf("global metrics incomplete:\n%s", b)
	}
	if b := readBody(t, doReq(t, client, http.MethodGet, hs.URL+"/healthz", nil)); !strings.Contains(b, "1 tenants") {
		t.Fatalf("healthz: %s", b)
	}

	// Status endpoint reflects the ingest.
	resp = doReq(t, client, http.MethodGet, hs.URL+"/tenants/acme", nil)
	var st struct {
		TenantStatus
		Spec *spec.PipelineSpec `json:"spec"`
	}
	mustDecode(t, resp, http.StatusOK, &st)
	if st.Stats.Records != len(tr.Records) || st.Spec == nil {
		t.Fatalf("status: records=%d (want %d) spec=%v", st.Stats.Records, len(tr.Records), st.Spec != nil)
	}

	// Update replaces the pipeline (200, not 201) and resets its stats.
	resp = doReq(t, client, http.MethodPut, hs.URL+"/tenants/acme", body)
	var st2 TenantStatus
	mustDecode(t, resp, http.StatusOK, &st2)
	if st2.Stats.Records != 0 {
		t.Fatalf("update did not restart the pipeline: %+v", st2.Stats)
	}

	// Delete, then 404.
	resp = doReq(t, client, http.MethodDelete, hs.URL+"/tenants/acme", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %s", resp.Status)
	}
	resp = doReq(t, client, http.MethodGet, hs.URL+"/tenants/acme/report", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-delete report: %s", resp.Status)
	}
}

// TestServeBinaryIngest checks the streaming-body path: the collector's
// binary framing posted as application/octet-stream, under any spelling of
// that media type.
func TestServeBinaryIngest(t *testing.T) {
	tr := chainTrace(t, 5, nil)
	srv := NewServer(ServerConfig{})
	tn, err := srv.Create("bin", tenantSpec(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(Handler(srv))
	defer hs.Close()

	spellings := []string{"application/octet-stream", "application/octet-stream; charset=binary", "Application/Octet-Stream"}
	part := (len(tr.Records) + len(spellings) - 1) / len(spellings)
	for i, ct := range spellings {
		recs := tr.Records[i*part : min((i+1)*part, len(tr.Records))]
		enc := collector.NewEncoder()
		for j := range recs {
			enc.Append(&recs[j])
		}
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/tenants/bin/records", bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var acc struct {
			Accepted int `json:"accepted"`
		}
		mustDecode(t, resp, http.StatusAccepted, &acc)
		if acc.Accepted != len(recs) {
			t.Fatalf("Content-Type %q: accepted %d of %d", ct, acc.Accepted, len(recs))
		}
	}
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := tn.LatestReport(); !ok {
		t.Fatal("no report after binary ingest + flush")
	}
	if got := tn.Status().Stats.Records; got != len(tr.Records) {
		t.Fatalf("fed %d records, want %d", got, len(tr.Records))
	}
}

// TestServeRejectsInvalidDir: a JSON record whose Dir is none of read,
// write and deliver fails its whole body with 400 naming the record, and
// nothing of the body is fed.
func TestServeRejectsInvalidDir(t *testing.T) {
	tr := chainTrace(t, 5, nil)
	srv := NewServer(ServerConfig{})
	tn, err := srv.Create("dir", tenantSpec(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(Handler(srv))
	defer hs.Close()

	recs := append([]collector.BatchRecord(nil), tr.Records[:3]...)
	recs[2].Dir = 3
	body, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	resp := doReq(t, hs.Client(), http.MethodPost, hs.URL+"/tenants/dir/records", body)
	if b := readBody(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(b, "record 2") {
		t.Fatalf("status %s: %s, want 400 naming record 2", resp.Status, b)
	}
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tn.Status().Stats.Records; got != 0 {
		t.Fatalf("fed %d records of a refused body", got)
	}
}

// TestBackpressure: a stalled tenant queue answers ErrBackpressure (429
// over HTTP with Retry-After), and releases once drained.
func TestBackpressure(t *testing.T) {
	tr := chainTrace(t, 7, nil)
	srv := NewServer(ServerConfig{})
	tn, err := srv.Create("slow", tenantSpec(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Stall the feed goroutine, then fill the queue to the brim.
	barrier := make(chan struct{})
	tn.in <- feedMsg{barrier: barrier}
	for len(tn.in) > 0 { // wait until the feed goroutine is parked on the barrier
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < feedQueueCap; i++ {
		if err := tn.Enqueue(tr.Records[:1]); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := tn.Enqueue(tr.Records[:1]); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("over-full enqueue = %v, want ErrBackpressure", err)
	}

	hs := httptest.NewServer(Handler(srv))
	defer hs.Close()
	rb, _ := json.Marshal(tr.Records[:1])
	resp := doReq(t, hs.Client(), http.MethodPost, hs.URL+"/tenants/slow/records", rb)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("want 429 + Retry-After, got %s", resp.Status)
	}

	close(barrier)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := tn.Enqueue(tr.Records[:1]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after release")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeRejectsSpecWithoutTopology: the serving tier cannot
// reconstruct without spec'd metadata.
func TestServeRejectsSpecWithoutTopology(t *testing.T) {
	srv := NewServer(ServerConfig{})
	if _, err := srv.Create("x", &spec.PipelineSpec{}); err == nil || !strings.Contains(err.Error(), "topology") {
		t.Fatalf("err = %v", err)
	}
	if _, err := srv.Create("", tenantSpec(chainTrace(t, 1, nil), nil)); err == nil {
		t.Fatal("empty tenant id accepted")
	}
}

// TestTenantLimit: the server bounds concurrent tenants.
func TestTenantLimit(t *testing.T) {
	leakcheck.Check(t)
	tr := chainTrace(t, 9, nil)
	srv := NewServer(ServerConfig{MaxTenants: 2})
	for i := 0; i < 2; i++ {
		if _, err := srv.Create(fmt.Sprintf("t%d", i), tenantSpec(tr, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Create("t2", tenantSpec(tr, nil)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func doReq(t testing.TB, c *http.Client, method, url string, body []byte) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t testing.TB, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustDecode(t testing.TB, resp *http.Response, wantCode int, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %s (want %d): %s", resp.Status, wantCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownSurvivesDrainPanic: a tenant whose drain panics must not
// hang the shutdown join — the panic is contained and reported, and the
// healthy tenants still drain to completion.
func TestShutdownSurvivesDrainPanic(t *testing.T) {
	leakcheck.Check(t)
	tr := chainTrace(t, 11, nil)
	srv := NewServer(ServerConfig{})
	bad, err := srv.Create("bad", tenantSpec(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	good, err := srv.Create("good", tenantSpec(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, good, tr.Records, 512)
	bad.drainHook = func() { panic("drain boom") }

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err == nil || !resilience.IsPanic(err) {
			t.Fatalf("Shutdown error = %v, want the contained drain panic", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Shutdown hung on a panicking tenant drain")
	}
	if err := good.drain(context.Background()); err != nil {
		t.Fatalf("healthy tenant not drained after Shutdown: %v", err)
	}
	// Release the panicking tenant's feed goroutine so the test itself
	// leaks nothing.
	bad.drainHook = nil
	if err := bad.drain(context.Background()); err != nil {
		t.Fatalf("cleanup drain: %v", err)
	}
}

// TestHandlerEndpoints drives the operator surface every daemon serves:
// /metrics is Prometheus text carrying the tenant's labeled series,
// /debug/pprof answers, and a newly created tenant — no window diagnosed
// yet — is live on both /healthz endpoints.
func TestHandlerEndpoints(t *testing.T) {
	tr := chainTrace(t, 13, nil)
	srv := NewServer(ServerConfig{})
	if _, err := srv.Create("fresh", tenantSpec(tr, nil)); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(Handler(srv))
	defer hs.Close()
	defer srv.Shutdown(context.Background())

	resp := doReq(t, hs.Client(), http.MethodGet, hs.URL+"/metrics", nil)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	if b := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(b, `microscope_monitor_records_total{tenant="fresh"} 0`) {
		t.Errorf("/metrics = %s:\n%s", resp.Status, b)
	}
	resp = doReq(t, hs.Client(), http.MethodGet, hs.URL+"/debug/pprof/", nil)
	if b := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(b, "profile") {
		t.Errorf("/debug/pprof/ = %s", resp.Status)
	}
	for _, path := range []string{"/healthz", "/tenants/fresh/healthz"} {
		resp = doReq(t, hs.Client(), http.MethodGet, hs.URL+path, nil)
		if b := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Errorf("%s of a fresh tenant = %s %q, want 200", path, resp.Status, b)
		}
	}
}

// TestHealthzSkippedRung: a tenant whose every window overruns its
// deadline has no trace health to call degraded, yet diagnoses nothing.
// Both /healthz endpoints answer 503 and name the rung; a healthy tenant
// beside it stays 200 on its own endpoint.
func TestHealthzSkippedRung(t *testing.T) {
	tr := chainTrace(t, 15, nil)
	srv := NewServer(ServerConfig{})
	defer srv.Shutdown(context.Background())
	slow, err := srv.Create("slow", tenantSpec(tr, func(s *spec.PipelineSpec) {
		s.Resilience.WindowDeadline = 1 // 1ns: every window is skipped
	}))
	if err != nil {
		t.Fatal(err)
	}
	good, err := srv.Create("good", tenantSpec(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []*Tenant{slow, good} {
		feedAll(t, tn, tr.Records, 4096)
		flushAll(t, tn)
	}
	if slow.Degradation() != resilience.Skipped {
		t.Fatalf("slow tenant ran at %v, want skipped", slow.Degradation())
	}
	hs := httptest.NewServer(Handler(srv))
	defer hs.Close()
	for path, want := range map[string]int{
		"/healthz":              http.StatusServiceUnavailable,
		"/tenants/slow/healthz": http.StatusServiceUnavailable,
		"/tenants/good/healthz": http.StatusOK,
	} {
		resp := doReq(t, hs.Client(), http.MethodGet, hs.URL+path, nil)
		b := readBody(t, resp)
		if resp.StatusCode != want {
			t.Errorf("%s = %s %q, want %d", path, resp.Status, b, want)
		}
		if want != http.StatusOK && !strings.Contains(b, "degradation=skipped") {
			t.Errorf("%s does not name the rung: %q", path, b)
		}
	}
}

// TestFlushThenShutdownAddsNoReport: a flush diagnoses the last window;
// the drain that follows finds only its already-diagnosed overlap tail and
// must not report it again as one more window.
func TestFlushThenShutdownAddsNoReport(t *testing.T) {
	leakcheck.Check(t)
	tr := chainTrace(t, 17, nil)
	srv := NewServer(ServerConfig{})
	tn, err := srv.Create("once", tenantSpec(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, tn, tr.Records, 4096)
	flushAll(t, tn)
	before := tn.Status()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := tn.Status()
	if after.Reports != before.Reports || after.Stats != before.Stats {
		t.Fatalf("shutdown after flush changed the tenant:\n  before %d reports %+v\n  after  %d reports %+v",
			before.Reports, before.Stats, after.Reports, after.Stats)
	}
}

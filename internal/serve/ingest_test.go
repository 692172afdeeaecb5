package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/simtime"
	"microscope/internal/spec"
)

// ingestBodyRecs is the record count of one ingest body in the allocation
// budget and BenchmarkIngest, the size of a serve-bulk body.
const ingestBodyRecs = 2000

// encodeMST2 renders recs as one MST2 body.
func encodeMST2(recs []collector.BatchRecord) []byte {
	enc := collector.NewEncoder()
	for i := range recs {
		enc.Append(&recs[i])
	}
	return enc.Bytes()
}

// ingestHarness posts bodies straight into serve.Handler, with no socket,
// and waits for the tenant's feed goroutine to take each one in.
type ingestHarness struct {
	h  http.Handler
	tn *Tenant
}

func newIngestHarness(t testing.TB, tr *collector.Trace, mod func(*spec.PipelineSpec)) *ingestHarness {
	t.Helper()
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck // test teardown
	tn, err := srv.Create("ingest", tenantSpec(tr, mod))
	if err != nil {
		t.Fatal(err)
	}
	return &ingestHarness{h: Handler(srv), tn: tn}
}

// post sends one body and returns the status code.
func (ih *ingestHarness) post(body []byte, contentType string) int {
	req := httptest.NewRequest(http.MethodPost, "/tenants/ingest/records", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	ih.h.ServeHTTP(rec, req)
	return rec.Code
}

// settle waits until the feed goroutine has fed every queued chunk (and so
// put it back on the free list).
func (ih *ingestHarness) settle() {
	for {
		ih.tn.mu.Lock()
		q := ih.tn.queued
		ih.tn.mu.Unlock()
		if q == 0 {
			return
		}
		runtime.Gosched()
	}
}

// TestIngestAllocsPerBody pins what an MST2 body costs a warm tenant in
// allocations: the decoder's own — slab chunks for the records' payloads
// and the body's string tables, measured by decoding the same body into
// reused storage — plus net/http's, measured on a body holding no records.
// A per-body buffer (the body read into fresh memory, or the records
// decoded into a fresh chunk) is over the budget. Every body posted is
// the same records shifted in time, so each costs the same allocations.
func TestIngestAllocsPerBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	tr := chainTrace(t, 9, nil)
	// One long window that never closes: the feed goroutine only appends.
	ih := newIngestHarness(t, tr, func(s *spec.PipelineSpec) {
		s.Stream.Slide = spec.Duration(int64(10 * simtime.Second))
	})
	recs := slices.Clone(tr.Records[:ingestBodyRecs])
	span := recs[len(recs)-1].At - recs[0].At + 1
	shifted := func() []byte {
		body := encodeMST2(recs)
		for i := range recs {
			recs[i].At += span
		}
		return body
	}
	post := func(body []byte) {
		if code := ih.post(body, "application/octet-stream"); code != http.StatusAccepted {
			t.Fatalf("status %d", code)
		}
		ih.settle()
	}
	// Warm up: the free list, the body pool and the monitor's pending
	// buffer (grown past what the measured bodies add) reach their steady
	// sizes.
	const warm, runs = 17, 10
	for range warm {
		post(shifted())
	}
	bodies := make([][]byte, runs+1)
	for i := range bodies {
		bodies[i] = shifted()
	}
	next := 0
	perBody := testing.AllocsPerRun(runs, func() {
		post(bodies[next])
		next++
	})
	empty := []byte("MST2")
	dst := make([]collector.BatchRecord, 0, ingestBodyRecs)
	decode := func(body []byte) func() {
		return func() { dst, _, _ = collector.AppendDecodeStream(dst[:0], body) }
	}
	httpOnly := testing.AllocsPerRun(runs, func() { post(empty) }) - testing.AllocsPerRun(runs, decode(empty))
	decoder := testing.AllocsPerRun(runs, decode(bodies[0]))
	if perBody > httpOnly+decoder {
		t.Errorf("an MST2 body of %d records allocates %.0f objects; budget %.0f (net/http %.0f + decoder %.0f)",
			ingestBodyRecs, perBody, httpOnly+decoder, httpOnly, decoder)
	}
}

// TestEnqueueNeverWritesItsSlice: the handler recycles the chunks it
// decodes into, but a slice handed to Tenant.Enqueue belongs to its caller
// — mslive resends the same slice after backpressure — and is never
// decoded into, however many bodies arrive after it.
func TestEnqueueNeverWritesItsSlice(t *testing.T) {
	tr := chainTrace(t, 10, nil)
	ih := newIngestHarness(t, tr, nil)
	// A slice of its own, small enough that the free list would keep it.
	mine := slices.Clone(tr.Records[:500])
	want := make([]collector.BatchRecord, len(mine))
	for i, r := range mine {
		r.IPIDs = append([]uint16(nil), r.IPIDs...)
		r.Tuples = append(r.Tuples[:0:0], r.Tuples...)
		want[i] = r
	}
	feedAll(t, ih.tn, mine, len(mine))
	ih.settle()
	for i := len(mine); i+200 <= len(tr.Records) && i < 20*200; i += 200 {
		body, err := json.Marshal(tr.Records[i : i+200])
		if err != nil {
			t.Fatal(err)
		}
		if code := ih.post(body, "application/json"); code != http.StatusAccepted {
			t.Fatalf("body at %d: status %d", i, code)
		}
		if code := ih.post(encodeMST2(tr.Records[i:i+200]), "application/octet-stream"); code != http.StatusAccepted {
			t.Fatalf("MST2 body at %d: status %d", i, code)
		}
		ih.settle()
	}
	if !reflect.DeepEqual(mine, want) {
		t.Fatal("a slice passed to Enqueue was written to after it was fed")
	}
}

// BenchmarkIngest posts 2000-record MST2 and JSON bodies through
// serve.Handler to a warm tenant and waits for each to be fed: the body
// read, the decode, the ring append and the segment seal, per record. The
// tenant runs at the skipped rung (stages.run), so windows are sealed and
// evicted but not diagnosed.
func BenchmarkIngest(b *testing.B) {
	tr := chainTrace(b, 9, nil)
	span := simtime.Time(0)
	if n := len(tr.Records); n > 0 {
		span = tr.Records[n-1].At + simtime.Time(simtime.Millisecond)
	}
	for _, format := range []struct {
		name, contentType string
		encode            func([]collector.BatchRecord) []byte
	}{
		{"mst2", "application/octet-stream", encodeMST2},
		{"json", "application/json", func(recs []collector.BatchRecord) []byte {
			body, _ := json.Marshal(recs)
			return body
		}},
	} {
		b.Run(format.name, func(b *testing.B) {
			ih := newIngestHarness(b, tr, func(s *spec.PipelineSpec) {
				s.Stages.Run = spec.RungSkipped
				s.Stream.Slide = spec.Duration(int64(2 * simtime.Millisecond))
				s.Stream.Overlap = spec.Duration(int64(simtime.Millisecond))
			})
			// Each lap re-encodes the trace shifted past the previous one, so
			// time only moves forward.
			var bodies [][]byte
			lap := 0
			encodeLap := func() {
				bodies = bodies[:0]
				shifted := append([]collector.BatchRecord(nil), tr.Records...)
				for i := range shifted {
					shifted[i].At += simtime.Time(lap) * span
				}
				for i := 0; i+ingestBodyRecs <= len(shifted); i += ingestBodyRecs {
					bodies = append(bodies, format.encode(shifted[i:i+ingestBodyRecs]))
				}
				lap++
			}
			encodeLap()
			for _, body := range bodies[:4] {
				ih.post(body, format.contentType)
				ih.settle()
			}
			// Encoding a lap is not ingest: its allocations are left out.
			var before, after, lap0, lap1 runtime.MemStats
			var lapBytes, lapMallocs uint64
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i, k := 0, 4; i < b.N; i, k = i+1, k+1 {
				if k == len(bodies) {
					b.StopTimer()
					runtime.ReadMemStats(&lap0)
					encodeLap()
					runtime.ReadMemStats(&lap1)
					lapBytes += lap1.TotalAlloc - lap0.TotalAlloc
					lapMallocs += lap1.Mallocs - lap0.Mallocs
					k = 0
					b.StartTimer()
				}
				if code := ih.post(bodies[k], format.contentType); code != http.StatusAccepted {
					b.Fatalf("status %d", code)
				}
				ih.settle()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * ingestBodyRecs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc-lapBytes)/n, "B/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs-lapMallocs)/float64(b.N), "allocs/body")
		})
	}
}

// TestIngestDecodeHistogram: each ingest body's decode is observed once,
// under its wire format, in the tenant's microscope_ingest_decode_ns.
func TestIngestDecodeHistogram(t *testing.T) {
	tr := chainTrace(t, 5, nil)
	ih := newIngestHarness(t, tr, nil)
	body, err := json.Marshal(tr.Records[:ingestBodyRecs])
	if err != nil {
		t.Fatal(err)
	}
	if code := ih.post(body, "application/json"); code != http.StatusAccepted {
		t.Fatalf("JSON body: status %d", code)
	}
	if code := ih.post(encodeMST2(tr.Records[ingestBodyRecs:2*ingestBodyRecs]), "application/octet-stream"); code != http.StatusAccepted {
		t.Fatalf("MST2 body: status %d", code)
	}
	rec := httptest.NewRecorder()
	ih.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, format := range []string{"json", "mst2"} {
		want := `microscope_ingest_decode_ns_count{tenant="ingest",format="` + format + `"} 1`
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("/metrics has no %q:\n%s", want, rec.Body.String())
		}
	}
}

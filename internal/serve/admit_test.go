package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"microscope/internal/leakcheck"
)

// postRecords posts body to the tenant's ingest endpoint and returns the
// status code and Retry-After header.
func postRecords(t *testing.T, hs *httptest.Server, id, contentType string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/tenants/"+id+"/records", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// TestAdmitBeforeDecode: the ingest endpoint reserves the tenant's queue
// slot before it reads the body. A full queue therefore refuses even a
// body that would not decode with 429 (it never looked), a body that does
// not decode gives its slot back, and the queued count stays exact through
// refusals, bad bodies, empty batches, a flush and the final drain.
func TestAdmitBeforeDecode(t *testing.T) {
	leakcheck.Check(t)
	tr := chainTrace(t, 11, nil)
	srv := NewServer(ServerConfig{})
	tn, err := srv.Create("adm", tenantSpec(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(Handler(srv))
	defer hs.Close()
	queued := func() int { return tn.Status().QueuedChunks }
	garbage := []byte("neither MST2 nor JSON")
	// The trace's last records: still ahead of the watermark after the
	// flushes below, so the monitor counts them as fed.
	valid, _ := json.Marshal(tr.Records[len(tr.Records)-4:])

	// Stall the feed goroutine on an accounted-for barrier, then fill the
	// queue to the brim.
	barrier := make(chan struct{})
	if err := tn.reserve(); err != nil {
		t.Fatal(err)
	}
	if err := tn.fill(feedMsg{barrier: barrier}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < feedQueueCap; i++ {
		if err := tn.Enqueue(tr.Records[:1]); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if got := queued(); got != feedQueueCap {
		t.Fatalf("queued = %d after filling, want %d", got, feedQueueCap)
	}

	for _, ct := range []string{"application/octet-stream", ""} {
		code, retry := postRecords(t, hs, "adm", ct, garbage)
		if code != http.StatusTooManyRequests || retry == "" {
			t.Fatalf("full queue, undecodable %q body: status %d Retry-After %q, want 429 with Retry-After", ct, code, retry)
		}
	}
	if code, _ := postRecords(t, hs, "adm", "", valid); code != http.StatusTooManyRequests {
		t.Fatalf("full queue, valid body: status %d, want 429", code)
	}
	if got := queued(); got != feedQueueCap {
		t.Fatalf("queued = %d after refusals, want %d", got, feedQueueCap)
	}

	close(barrier)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	flush := func() {
		t.Helper()
		for {
			err := tn.Flush(ctx)
			if err == nil {
				return
			}
			if err != ErrBackpressure {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	flush()
	if got := queued(); got != 0 {
		t.Fatalf("queued = %d after flush, want 0", got)
	}

	// With room in the queue the body is read: garbage is now a 400, and
	// neither it nor an empty batch holds on to a slot.
	for _, ct := range []string{"application/octet-stream", ""} {
		if code, _ := postRecords(t, hs, "adm", ct, garbage); code != http.StatusBadRequest {
			t.Fatalf("undecodable %q body: status %d, want 400", ct, code)
		}
	}
	if code, _ := postRecords(t, hs, "adm", "", []byte("[]")); code != http.StatusAccepted {
		t.Fatalf("empty batch: status %d, want 202", code)
	}
	if got := queued(); got != 0 {
		t.Fatalf("queued = %d after bad and empty bodies, want 0", got)
	}
	before := tn.Status().Stats.Records
	if code, _ := postRecords(t, hs, "adm", "", valid); code != http.StatusAccepted {
		t.Fatalf("valid body: status %d, want 202", code)
	}
	flush()
	if got := tn.Status().Stats.Records - before; got != 4 {
		t.Fatalf("fed %d records, want 4", got)
	}

	// A slot reserved before the tenant starts draining is given back
	// when the chunk arrives too late to be fed.
	if err := tn.reserve(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tn.fill(feedMsg{recs: tr.Records[:1]}); err != ErrStopped {
		t.Fatalf("fill after drain = %v, want ErrStopped", err)
	}
	if got := queued(); got != 0 {
		t.Fatalf("queued = %d after drain, want 0", got)
	}
	if code, _ := postRecords(t, hs, "adm", "", valid); code != http.StatusServiceUnavailable && code != http.StatusNotFound {
		t.Fatalf("post after shutdown: status %d, want 503 or 404", code)
	}
}

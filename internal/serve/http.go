// HTTP surface of the serving tier. Routes (Go 1.22 method patterns):
//
//	GET    /healthz                  aggregate liveness (503 when draining or
//	                                 any tenant's is)
//	GET    /metrics                  global exposition: server + every tenant
//	GET    /tenants                  list tenant statuses
//	POST   /tenants                  create tenant (spec body; id = spec.tenant)
//	PUT    /tenants/{id}             create or replace tenant (spec body)
//	GET    /tenants/{id}             tenant status + resolved spec
//	DELETE /tenants/{id}             drain and remove tenant
//	POST   /tenants/{id}/records     ingest: JSON array of records, or the
//	                                 collector's binary stream framing as
//	                                 application/octet-stream (chunked
//	                                 bodies stream fine)
//	POST   /tenants/{id}/flush       flush the pending partial window
//	GET    /tenants/{id}/report      latest window report (404 before first)
//	GET    /tenants/{id}/reports?n=N retained window reports
//	GET    /tenants/{id}/alerts      retained alerts
//	GET    /tenants/{id}/metrics     this tenant's exposition only
//	GET    /tenants/{id}/healthz     this tenant's liveness (503 when its latest
//	                                 window's trace health is degraded or the
//	                                 window ran at the skipped rung)
//	GET    /debug/pprof/...          the standard Go profiling endpoints
//	                                 (mutex/block carry data when the
//	                                 daemon runs with -contention-profile)
//
// Backpressure contract: when a tenant's ingest queue is full the POST
// returns 429 with a Retry-After header — the PR-6 bounded-ingest
// behaviour surfaced to HTTP clients instead of unbounded buffering.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"microscope/internal/collector"
	"microscope/internal/online"
	"microscope/internal/spec"
)

// maxBodyBytes bounds any request body (specs and record batches).
const maxBodyBytes = 64 << 20

// alertJSON is the wire form of an alert.
type alertJSON struct {
	WindowEnd int64   `json:"window_end_ns"`
	Comp      string  `json:"comp"`
	Kind      string  `json:"kind"`
	Score     float64 `json:"score"`
	Victims   int     `json:"victims"`
	Onset     int64   `json:"onset_ns"`
	Health    string  `json:"health"`
}

func alertsJSON(alerts []online.Alert) []alertJSON {
	out := make([]alertJSON, len(alerts))
	for i, a := range alerts {
		out[i] = alertJSON{
			WindowEnd: int64(a.WindowEnd),
			Comp:      a.Comp,
			Kind:      a.Kind.String(),
			Score:     a.Score,
			Victims:   a.Victims,
			Onset:     int64(a.Onset),
			Health:    a.Health.String(),
		}
	}
	return out
}

// Handler builds the serving tier's HTTP API around s.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		ok, detail := s.Healthz()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, detail)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})

	mux.HandleFunc("POST /tenants", func(w http.ResponseWriter, r *http.Request) {
		sp, err := readSpec(w, r)
		if err != nil {
			return
		}
		if sp.Tenant == "" {
			http.Error(w, "spec.tenant must name the tenant for POST /tenants (or PUT /tenants/{id})", http.StatusBadRequest)
			return
		}
		t, err := s.Create(sp.Tenant, sp)
		if err != nil {
			writeServeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, t.Status())
	})

	mux.HandleFunc("PUT /tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		sp, err := readSpec(w, r)
		if err != nil {
			return
		}
		t, existed, err := s.Update(r.Context(), r.PathValue("id"), sp)
		if err != nil {
			writeServeError(w, err)
			return
		}
		code := http.StatusCreated
		if existed {
			code = http.StatusOK
		}
		writeJSON(w, code, t.Status())
	})

	mux.HandleFunc("GET /tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such tenant", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			TenantStatus
			Spec *spec.PipelineSpec `json:"spec"`
		}{t.Status(), t.Spec})
	})

	mux.HandleFunc("DELETE /tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		switch err := s.Delete(r.Context(), r.PathValue("id")); {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, ErrTenantNotFound):
			http.Error(w, err.Error(), http.StatusNotFound)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("POST /tenants/{id}/records", func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such tenant", http.StatusNotFound)
			return
		}
		// Admit before decoding: a tenant that cannot take the chunk
		// refuses it having read none of the body.
		if err := t.reserve(); err != nil {
			writeServeError(w, err)
			return
		}
		chunk := t.takeChunk()
		recs, dec, err := readRecords(r, chunk[:0])
		t.observeDecode(dec)
		if err != nil || len(recs) == 0 {
			t.putChunk(chunk)
			t.release()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		} else if err := t.fill(feedMsg{recs: recs, recycle: true}); err != nil {
			t.putChunk(recs)
			writeServeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, struct {
			Accepted int `json:"accepted"`
			Resyncs  int `json:"decode_resyncs,omitempty"`
		}{len(recs), dec.Resyncs})
	})

	mux.HandleFunc("POST /tenants/{id}/flush", func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such tenant", http.StatusNotFound)
			return
		}
		if err := t.Flush(r.Context()); err != nil {
			writeServeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /tenants/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such tenant", http.StatusNotFound)
			return
		}
		doc, ok := t.LatestReportJSON()
		if !ok {
			http.Error(w, "no window diagnosed yet", http.StatusNotFound)
			return
		}
		writeJSONBytes(w, http.StatusOK, doc)
	})

	mux.HandleFunc("GET /tenants/{id}/reports", func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such tenant", http.StatusNotFound)
			return
		}
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		writeJSONBytes(w, http.StatusOK, t.ReportsJSON(n))
	})

	mux.HandleFunc("GET /tenants/{id}/alerts", func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such tenant", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, alertsJSON(t.Alerts()))
	})

	mux.HandleFunc("GET /tenants/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such tenant", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := t.Reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("GET /tenants/{id}/healthz", func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such tenant", http.StatusNotFound)
			return
		}
		ok, detail := t.healthz()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, detail)
	})

	return mux
}

// readSpec decodes a spec body, writing the HTTP error itself on failure.
func readSpec(w http.ResponseWriter, r *http.Request) (*spec.PipelineSpec, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, err
	}
	sp, err := spec.Parse(body)
	if err != nil {
		// Field-path validation errors are the API's contract: the client
		// learns exactly which knob is wrong.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, err
	}
	return sp, nil
}

// bodyDecode is what decoding one ingest body found and took.
type bodyDecode struct {
	collector.DecodeStats
	// format is the body's wire format, "json" or "mst2", or "" when the
	// body was not read and nothing was decoded.
	format string
	// took is the decode's wall time, the body's read excluded.
	took time.Duration
}

// readRecords decodes an ingest body into dst: the collector's binary
// stream framing when the media type is application/octet-stream
// (resilient to torn frames), a JSON record array otherwise. The body is
// read into a pooled buffer and is dead once decoded: both decoders copy
// out the strings and payloads they keep.
func readRecords(r *http.Request, dst []collector.BatchRecord) ([]collector.BatchRecord, bodyDecode, error) {
	buf := bodyPool.Get().(*[]byte)
	defer putBody(buf)
	body, err := readBodyInto(r, (*buf)[:0])
	*buf = body
	if err != nil {
		return dst, bodyDecode{}, err
	}
	began := time.Now() //mslint:allow determinism decode timing feeds a metric, never a diagnosis
	var recs []collector.BatchRecord
	dec := bodyDecode{format: "json"}
	// A malformed parameter still yields the media type; any other parse
	// failure yields "", which is JSON.
	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt == "application/octet-stream" {
		dec.format = "mst2"
		recs, dec.DecodeStats, err = collector.AppendDecodeStream(dst, body)
	} else if recs, err = collector.AppendDecodeJSON(dst, body); err != nil {
		err = fmt.Errorf("records body: %w", err)
	}
	dec.took = time.Since(began) //mslint:allow determinism decode timing feeds a metric, never a diagnosis
	return recs, dec, err
}

// maxPooledBody is the largest body buffer bodyPool keeps: a buffer that
// grew past it for one outsized body is left to the GC, not held for the
// ordinary ones.
const maxPooledBody = 4 << 20

// bodyPool recycles ingest body buffers across requests and tenants. A
// buffer is held only while its body is read and decoded, so the pool
// holds about one per concurrent ingest request.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func putBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// readBodyInto reads r's body, capped at maxBodyBytes, into buf's storage,
// which it first grows to the declared Content-Length so a body arrives in
// one buffer with no regrowth.
func readBodyInto(r *http.Request, buf []byte) ([]byte, error) {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		// One byte more than the body, so the read that sees EOF has room.
		buf = slices.Grow(buf, int(n)+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	writeJSONBytes(w, code, encodeJSON(v))
}

// encodeJSON renders v the way every JSON reply is: two-space indent, a
// trailing newline.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // reply types are plain data; a failure leaves a short reply
	return buf.Bytes()
}

// writeJSONBytes sends an encodeJSON document.
func writeJSONBytes(w http.ResponseWriter, code int, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(doc) //nolint:errcheck // client went away; nothing to do
}

// writeServeError maps the serving tier's sentinel errors onto status
// codes; everything else is a 400 (the errors are caller mistakes:
// duplicate tenant, invalid spec, missing topology).
func writeServeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBackpressure):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrStopped), errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrTenantNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

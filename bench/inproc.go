package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"microscope"
	"microscope/internal/collector"
	"microscope/internal/online"
	"microscope/internal/pipeline"
	"microscope/internal/spec"
)

// stageSpan maps the stages of a streaming window run
// (pipeline.Result.Spans) to the layer whose entry point they time.
var stageSpan = map[string]string{
	"ingest":   "tracestore.seal",
	"merge":    "tracestore.window",
	"index":    "tracestore.index",
	"victims":  "core.victims",
	"diagnose": "core.diagnose",
	// Cold runs (offline-batch) only.
	"reconstruct": "tracestore.reconstruct",
	"patterns":    "patterns.aggregate",
}

// allocSampleEvery is how often the traced run counts a decode's
// allocations: runtime.ReadMemStats stops the world, so not every body.
const allocSampleEvery = 16

// reference is what the in-process run of a serve workload produced: the
// expected output of the end-to-end run, and the job's cost on one
// goroutine.
type reference struct {
	// reports maps a window end to the SHA-256 of its fingerprint, for
	// every window that produced a result.
	reports map[int64]string
	stats   online.Stats
	alerts  []online.Alert
	// victims sums the victims of the reported windows.
	victims       int
	retainedBytes int64
	// unmatchedFrac is the share of dequeues reconstruction left
	// unmatched, over the whole stream.
	unmatchedFrac float64
	records       int
	bytes         int
	// encode is the load generator's share; job is decode + feed + flush,
	// what the daemon does with the same bodies.
	encode, job time.Duration
	// decodeAllocs and decodeSampled count allocations and records over
	// the sampled decodes.
	decodeAllocs, decodeSampled uint64
}

// parsedSpec sends a spec through its JSON form and resolves it, as the
// daemon does with an uploaded tenant.
func parsedSpec(sp *spec.PipelineSpec) (*spec.PipelineSpec, error) {
	doc, err := sp.Encode()
	if err != nil {
		return nil, err
	}
	parsed, err := spec.Parse(doc)
	if err != nil {
		return nil, err
	}
	return parsed.Resolved(), nil
}

// runInproc replays the first n bodies through the daemon's layers on this
// goroutine: encode, decode, Monitor.Feed, then one Flush. It is the
// reference for the end-to-end run and, with a tracer, the traced run: a
// span around each call into a layer, window stages taken from the
// pipeline.Result the monitor hands to OnWindow.
func runInproc(w workload, l *lap, n int, tr *tracer) (*reference, error) {
	rs, err := parsedSpec(w.tenantSpec(l.meta))
	if err != nil {
		return nil, err
	}
	meta, ok := rs.Meta()
	if !ok {
		return nil, fmt.Errorf("%s: spec has no topology", w.name)
	}
	ref := &reference{reports: make(map[int64]string)}
	body, feed := -1, -1
	mcfg := rs.MonitorConfig(nil)
	mcfg.Resilience.ContainPanics = true // msserve forces it on
	mcfg.OnWindow = func(end microscope.Time, res *pipeline.Result) {
		for _, s := range res.Spans {
			if s.Kind == "stage" {
				tr.add(stageSpan[s.Name], feed, s.Start, s.Dur, body, int64(end))
			}
		}
		t := now()
		sum := sha256.Sum256([]byte(res.Fingerprint()))
		tr.add("pipeline.fingerprint", feed, t, since(t), body, int64(end))
		ref.reports[int64(end)] = hex.EncodeToString(sum[:])
		ref.victims += len(res.Victims)
	}
	mon := online.New(meta, mcfg)

	bs := newBodies(l, w.bodyRecs)
	decodeName := "collector.decode"
	if w.json {
		decodeName = "serve.json_decode"
	}
	for body = 0; body < n; body++ {
		recs := bs.records(body)
		t := now()
		payload := w.encode(recs)
		d := since(t)
		tr.add("loadgen.encode", -1, t, d, body, -1)
		ref.encode += d
		ref.bytes += len(payload)
		ref.records += len(recs)

		sample := tr != nil && body%allocSampleEvery == 0
		var before, after runtime.MemStats
		if sample {
			runtime.ReadMemStats(&before)
		}
		t = now()
		root := tr.open("inproc.body", -1, t, body)
		var decoded []collector.BatchRecord
		if w.json {
			err = json.Unmarshal(payload, &decoded)
		} else {
			decoded, _, err = collector.DecodeStream(payload)
		}
		decodeEnd := now()
		if err != nil {
			return nil, fmt.Errorf("%s: body %d does not decode: %w", w.name, body, err)
		}
		tr.add(decodeName, root, t, decodeEnd.Sub(t), body, -1)
		if sample {
			runtime.ReadMemStats(&after)
			ref.decodeAllocs += after.Mallocs - before.Mallocs
			ref.decodeSampled += uint64(len(recs))
			decodeEnd = now()
		}
		feed = tr.open("online.feed", root, decodeEnd, body)
		ref.alerts = append(ref.alerts, mon.Feed(decoded)...)
		feedEnd := now()
		tr.end(feed, feedEnd)
		tr.end(root, feedEnd)
		ref.job += feedEnd.Sub(t)
	}
	// One flush, as the end-to-end run sends one POST /flush: a second
	// would report the retained overlap as one more window.
	t := now()
	feed = tr.open("online.feed", -1, t, -1)
	body = -1
	ref.alerts = append(ref.alerts, mon.Flush()...)
	ref.job += since(t)
	tr.end(feed, now())
	ref.stats = mon.Stats()
	if st, ok := mon.StreamStats(); ok {
		ref.retainedBytes = st.RetainedBytes
		if total := st.Recon.Matched + st.Recon.Reordered + st.Recon.LookaheadFix + st.Recon.Unmatched; total > 0 {
			ref.unmatchedFrac = float64(st.Recon.Unmatched) / float64(total)
		}
	}
	return ref, nil
}

package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one metric of the benchmark. The two tables below are
// the single list the harness prints from; BENCHMARK.json repeats them
// (with bounds) and a test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd metrics are what an operator sees. Every workload reports
// every one of them, and none of them is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"report_lag_ms_p50", "ms"},
	{"cpu_s_per_mrec", "s"},
	{"rss_mb_peak", "MB"},
}

// perLayer metrics belong to one module each (the prefix). A metric that
// does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// Client-observed, from the end-to-end run.
	{"serve.post_ms_p50", "ms"},
	{"serve.post_ms_p95", "ms"},
	{"serve.posts", "count"},
	{"serve.refused_429", "count"},
	{"serve.accept_ratio", "ratio"},
	{"serve.bytes_per_rec", "B"},
	{"serve.queued_chunks_max", "count"},
	{"serve.retained_bytes", "B"},
	{"serve.poll_ms_p50", "ms"},
	{"serve.report_lag_ms_p90", "ms"},
	{"serve.report_lag_ms_tail", "ms"},
	{"serve.report_lag_tail_pct", "%"},
	{"serve.report_lag_samples", "count"},
	{"loadgen.send_lag_ms_p95", "ms"},
	{"loadgen.encode_s", "s"},
	{"core.culprit_hit_frac", "ratio"},
	// From the traced in-process run.
	{"collector.encode_ns_per_rec", "ns"},
	{"collector.decode_s", "s"},
	{"collector.decode_ns_per_rec", "ns"},
	{"collector.decode_allocs_per_rec", "count"},
	{"serve.json_decode_ns_per_rec", "ns"},
	{"online.feed_self_s", "s"},
	{"online.feed_self_ns_per_rec", "ns"},
	{"online.windows", "count"},
	{"online.reports", "count"},
	{"online.alerts", "count"},
	{"online.late_dropped", "count"},
	{"online.records_shed", "count"},
	{"online.degraded_windows", "count"},
	{"tracestore.seal_s", "s"},
	{"tracestore.seal_ns_per_rec", "ns"},
	{"tracestore.window_s", "s"},
	{"tracestore.window_ms_p50", "ms"},
	{"tracestore.index_s", "s"},
	{"tracestore.retained_bytes", "B"},
	{"tracestore.unmatched_frac", "ratio"},
	{"core.victims_s", "s"},
	{"core.diagnose_s", "s"},
	{"core.diagnose_us_per_victim", "us"},
	{"core.victims", "count"},
	{"pipeline.fingerprint_s", "s"},
	// offline-batch only.
	{"collector.read_s", "s"},
	{"tracestore.reconstruct_s", "s"},
	{"patterns.aggregate_s", "s"},
	{"patterns.relations", "count"},
	{"patterns.patterns", "count"},
	// Roll-ups of the traced run.
	{"share.collector", "ratio"},
	{"share.serve", "ratio"},
	{"share.online", "ratio"},
	{"share.tracestore", "ratio"},
	{"share.core", "ratio"},
	{"share.pipeline", "ratio"},
	{"share.patterns", "ratio"},
	{"trace.total_s", "s"},
	{"trace.coverage", "ratio"},
	{"trace.e2e_ratio", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"inproc.records_per_s", "1/s"},
}

// metrics holds the values one workload run measured, by metric name.
type metrics map[string]float64

// print writes the measured metrics of defs as "name value unit" lines.
func (m metrics) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(w, "%s %.6g %s\n", d.name, v, d.unit)
		}
	}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of sorted (ascending)
// samples, or 0 for none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentiles are the candidates tailPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile that n samples support:
// one with at least ten samples beyond it. Fewer than 40 samples support
// only the median.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-6 {
			return p
		}
	}
	return 50
}

// median returns the median of vals without reordering them.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// span is one timed call into a layer's public entry point. Start and End
// are nanoseconds since the trace began; Parent is -1 for a root. Body and
// Window tie the span to the request body and the window end (simulated
// ns) that caused it, -1 when there is none.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Body   int    `json:"body"`
	Window int64  `json:"window_end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run shares the traced run's code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start time.Time, dur time.Duration, body int, window int64) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: s, End: s + dur.Nanoseconds(), Body: body, Window: window})
	return id
}

// open records a span whose end is not known yet; close it with end.
func (t *tracer) open(name string, parent int, start time.Time, body int) int {
	return t.add(name, parent, start, 0, body, -1)
}

func (t *tracer) end(id int, at time.Time) {
	if t != nil {
		t.spans[id].End = at.Sub(t.t0).Nanoseconds()
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return self
}

// durations returns the durations of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

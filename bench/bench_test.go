package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"microscope"
)

// testLap is small enough to generate in a fraction of a second.
func testLap(t *testing.T) *lap {
	t.Helper()
	l := genLap(3, 5*microscope.Millisecond)
	if len(l.recs) < 1000 || len(l.inj) == 0 {
		t.Fatalf("lap too small: %d records, %d injections", len(l.recs), len(l.inj))
	}
	return l
}

// Replayed laps must reach the monitor as one time-ordered stream with
// the packets they had: a record out of order is dropped as late, and the
// reconstruction matches on IPIDs.
func TestLapShiftKeepsOrderAndIPIDs(t *testing.T) {
	l := testLap(t)
	first := l.recs[0].At
	bs := newBodies(l, 700)
	var last microscope.Time
	n := 0
	for i := 0; i < 3*bs.perLap; i++ {
		recs := bs.records(i)
		if want := bs.recordsBefore(i+1) - bs.recordsBefore(i); len(recs) != want {
			t.Fatalf("body %d has %d records, recordsBefore says %d", i, len(recs), want)
		}
		for j := range recs {
			base := &l.recs[n%len(l.recs)]
			if recs[j].At < last {
				t.Fatalf("body %d record %d: time %v after %v", i, j, recs[j].At, last)
			}
			last = recs[j].At
			if want := base.At.Add(microscope.Duration(n/len(l.recs)) * l.period); recs[j].At != want {
				t.Fatalf("body %d record %d: time %v, want %v", i, j, recs[j].At, want)
			}
			if len(recs[j].IPIDs) != len(base.IPIDs) || (len(base.IPIDs) > 0 && &recs[j].IPIDs[0] != &base.IPIDs[0]) {
				t.Fatalf("body %d record %d: IPIDs differ from the lap's", i, j)
			}
			n++
		}
	}
	if n != 3*len(l.recs) {
		t.Fatalf("3 laps of bodies hold %d records, want %d", n, 3*len(l.recs))
	}
	if l.recs[0].At != first {
		t.Fatal("shifting changed the lap itself")
	}
}

func TestClosingBody(t *testing.T) {
	l := testLap(t)
	bs := newBodies(l, 300)
	// Brute force: the newest timestamp of every body of three replays.
	var lastAt []microscope.Time
	for i := 0; i < 3*bs.perLap; i++ {
		recs := bs.records(i)
		lastAt = append(lastAt, recs[len(recs)-1].At)
	}
	slide := 250 * microscope.Microsecond
	for end := microscope.Time(slide); end < microscope.Time(2*l.period); end = end.Add(slide) {
		want := 0
		for want < len(lastAt) && lastAt[want] <= end {
			want++
		}
		if got := bs.closing(end); got != want {
			t.Fatalf("closing(%v) = body %d, want %d", end, got, want)
		}
	}
}

func TestPercentiles(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(doc, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// The harness and BENCHMARK.json must name the same workloads and metrics,
// within the contract's limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bj.Workloads) > 8 || len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8 / 16 / 128",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer))
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the harness %d", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q [%q]: bad or repeated name or unit", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s metric %s: only end-to-end metrics carry a bound, in (0, 0.25]", kind, m.Name)
			}
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd, true)
	check("per-layer", bj.PerLayer, perLayer, false)
	if m := bj.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", m)
	}
}

// checkShortRun fails the test unless the run's outputs all checked out
// and every metric it measured is one the tables (so BENCHMARK.json) name.
func checkShortRun(t *testing.T, w workload, m metrics, v *verdict, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if v.failed != 0 || v.attempted == 0 {
		t.Fatalf("%s: %d of %d failed: %v", w.name, v.failed, v.attempted, v.problems)
	}
	known := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for name := range m {
		if !known[name] {
			t.Errorf("%s measured %s, which no table names", w.name, name)
		}
	}
	for _, d := range endToEnd {
		if m[d.name] == 0 {
			t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
		}
	}
	if m["trace.coverage"] < 0.95 {
		t.Errorf("%s: trace.coverage = %g, want at least 0.95", w.name, m["trace.coverage"])
	}
}

// A short run of every serve workload, against the serving tier hosted
// in-process, must pass the same output checks as a full run: the set of
// (window end, fingerprint) pairs read before the tenant is deleted equals
// the reference's, the counters agree, nothing is shed, late or degraded.
func TestShortServeRunsPassChecks(t *testing.T) {
	for _, w := range workloads {
		if w.offline {
			continue
		}
		opts := options{seed: 2, seconds: 1, trace: traceBoth, short: true, root: t.TempDir()}
		m, v, err := runServe(w, opts)
		checkShortRun(t, w, m, v, err)
		if len(v.lagMs) == 0 || m["online.reports"] == 0 {
			t.Errorf("%s: no report lag was measured", w.name)
		}
	}
}

// offline-batch needs the real msdiag, so this test builds it.
func TestShortOfflineRunPassesChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds msdiag")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildBinaries(root)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	w, _ := workloadByName("offline-batch")
	opts := options{seed: 2, seconds: 1, trace: traceBoth, short: true, root: root, bin: bin}
	m, v, err := runOffline(w, opts)
	checkShortRun(t, w, m, v, err)
}

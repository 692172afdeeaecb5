package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// encoded is what writeJSON sends for v.
func encoded(v any) string {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.String()
}

// TestReportRepliesMatchWriteJSON: /reports and /report are served from
// bytes encoded once when each window closed; they must be, byte for byte,
// what encoding the reports on every poll produced — for every n, before the
// first window, across the wrap of the 256-report ring, and for degraded
// windows as well as clean ones.
func TestReportRepliesMatchWriteJSON(t *testing.T) {
	tr := chainTrace(t, 3, nil)
	srv := NewServer(ServerConfig{})
	tn, err := srv.Create("acme", tenantSpec(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck // test teardown
	hs := httptest.NewServer(Handler(srv))
	defer hs.Close()
	get := func(path string) (int, string) {
		resp := doReq(t, hs.Client(), http.MethodGet, hs.URL+"/tenants/acme/"+path, nil)
		return resp.StatusCode, readBody(t, resp)
	}

	check := func(windows int) {
		t.Helper()
		for _, q := range []struct {
			query string
			n     int
		}{{"", 0}, {"?n=0", 0}, {"?n=1", 1}, {"?n=4", 4}, {"?n=256", 256}, {"?n=1000", 1000}} {
			want := encoded(tn.Reports(q.n))
			if code, got := get("reports" + q.query); code != http.StatusOK || got != want {
				t.Fatalf("after %d windows: GET reports%s = %d, %d bytes; want 200 and\n%s\ngot\n%s",
					windows, q.query, code, len(got), want, got)
			}
		}
		code, got := get("report")
		rep, ok := tn.LatestReport()
		switch {
		case !ok && code != http.StatusNotFound:
			t.Fatalf("after %d windows: GET report = %d, want 404", windows, code)
		case ok && (code != http.StatusOK || got != encoded(rep)):
			t.Fatalf("after %d windows: GET report = %d\n%s\nwant\n%s", windows, code, got, encoded(rep))
		}
		if want := min(windows, maxRetainedReports); tn.Status().Reports != want || len(tn.Reports(0)) != want {
			t.Fatalf("after %d windows: %d reports retained, Status says %d, want %d",
				windows, len(tn.Reports(0)), tn.Status().Reports, want)
		}
	}

	check(0)
	if got := encoded(tn.Reports(0)); got != "null\n" {
		t.Fatalf("no reports encode as %q", got)
	}
	for w := 1; w <= 2*maxRetainedReports+5; w++ {
		// Reports of varying shape: every rung, damaged and clean health.
		res := &pipeline.Result{
			Degradation: resilience.Level(w % 4),
			Victims:     make([]core.Victim, w%7),
			Diagnoses:   make([]core.Diagnosis, w%5),
			Health: tracestore.Health{
				Records: w, Journeys: w / 2,
				Integrity: collector.Integrity{DroppedRecords: w % 3},
				Recon:     tracestore.ReconStats{Matched: 100, Unmatched: w % 9},
			},
		}
		tn.onWindow(simtime.Time(w)*simtime.Time(simtime.Millisecond), res)
		switch w {
		case 1, 2, 4, 5, maxRetainedReports - 1, maxRetainedReports, maxRetainedReports + 1,
			maxRetainedReports + 4, 2 * maxRetainedReports, 2*maxRetainedReports + 5:
			check(w)
		}
	}
	degraded := 0
	for _, rep := range tn.Reports(0) {
		if strings.HasSuffix(rep.Health, "[degraded]") {
			degraded++
		}
	}
	if degraded == 0 || degraded == maxRetainedReports {
		t.Fatalf("%d of the %d retained reports are degraded; want some of each", degraded, maxRetainedReports)
	}
	if reps := tn.Reports(3); len(reps) != 3 || reps[2].End != simtime.Time(2*maxRetainedReports+5)*simtime.Time(simtime.Millisecond) {
		t.Fatalf("Reports(3) after the wrap = %+v", reps)
	}
}

// TestOnWindowConsumersRetainNothing: a streaming Result's Store and Index
// are lent until the next RunWindow, so the serve tenant must keep
// summaries only. Windows of a real stream go through onWindow; after each,
// nothing reachable from the tenant — outside the monitor that owns the
// stream — may point at the window store, its index, or their tables, and
// the store's generation must have moved on by the next window, which is
// how a stale holder would be told.
func TestOnWindowConsumersRetainNothing(t *testing.T) {
	tr := chainTrace(t, 5, []simtime.Time{simtime.Time(30 * simtime.Millisecond)})
	srv := NewServer(ServerConfig{})
	tn, err := srv.Create("acme", tenantSpec(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck // test teardown

	w, o := 10*simtime.Millisecond, 2*simtime.Millisecond
	ss, err := pipeline.NewStreamState(tr.Meta, w, o, pipeline.Config{Diagnosis: core.Config{Workers: 1}, SkipPatterns: true})
	if err != nil {
		t.Fatal(err)
	}
	var lent *tracestore.Store
	var lentGen uint64
	from := 0
	for end := simtime.Time(w); end <= simtime.Time(8*w); end += simtime.Time(w) {
		to := from
		for to < len(tr.Records) && tr.Records[to].At <= end {
			to++
		}
		res, err := ss.RunWindow(context.Background(), end, resilience.Full, tr.Records[from:to])
		if err != nil {
			t.Fatal(err)
		}
		from = to
		if lent != nil && (res.Store != lent || res.Store.Generation() == lentGen) {
			t.Fatalf("window %v: store %p generation %d after %p generation %d: the window store should be one store, a generation per window",
				end, res.Store, res.Store.Generation(), lent, lentGen)
		}
		lent, lentGen = res.Store, res.Store.Generation()
		tn.onWindow(end, res)

		lentPtrs := map[uintptr]string{
			reflect.ValueOf(res).Pointer():       "the Result",
			reflect.ValueOf(res.Store).Pointer(): "Result.Store",
		}
		if len(res.Store.Journeys) > 0 {
			lentPtrs[reflect.ValueOf(res.Store.Journeys).Pointer()] = "Store.Journeys"
			lentPtrs[reflect.ValueOf(res.Store.Journeys[0].Hops).Pointer()] = "the hop column"
		}
		for _, name := range res.Store.Components() {
			if v := res.Store.View(name); len(v.Arrivals) > 0 {
				lentPtrs[reflect.ValueOf(v.Arrivals).Pointer()] = name + " arrivals"
			}
		}
		seen := make(map[uintptr]bool)
		if path := findPointer(reflect.ValueOf(tn).Elem(), lentPtrs, seen, "Tenant"); path != "" {
			t.Fatalf("window %v: tenant retains lent window state: %s", end, path)
		}
	}
	if reps := tn.Reports(0); len(reps) != 8 {
		t.Fatalf("%d reports retained, want 8", len(reps))
	}
}

// findPointer walks everything reachable from v and returns the path to the
// first pointer, slice or map that is one of targets ("" when none is).
// The tenant's monitor is not followed: it owns the stream the store
// belongs to. Functions and channels are opaque to reflection and skipped.
func findPointer(v reflect.Value, targets map[uintptr]string, seen map[uintptr]bool, path string) string {
	switch v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice:
		if v.IsNil() {
			return ""
		}
		if what, ok := targets[v.Pointer()]; ok {
			return fmt.Sprintf("%s is %s", path, what)
		}
	}
	switch v.Kind() {
	case reflect.Pointer:
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return findPointer(v.Elem(), targets, seen, path)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return findPointer(v.Elem(), targets, seen, path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if v.Type() == reflect.TypeOf((*Tenant)(nil)).Elem() && f.Name == "mon" {
				continue
			}
			if p := findPointer(v.Field(i), targets, seen, path+"."+f.Name); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := findPointer(v.Index(i), targets, seen, fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := findPointer(it.Value(), targets, seen, path+"[...]"); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestFindPointerFinds keeps the walker honest: it must see through
// unexported fields, slices, maps and interfaces, or the test above proves
// nothing.
func TestFindPointerFinds(t *testing.T) {
	target := &tracestore.Store{}
	type inner struct{ held any }
	type outer struct {
		byName map[string]*inner
		list   []inner
	}
	targets := map[uintptr]string{reflect.ValueOf(target).Pointer(): "the store"}
	clean := outer{byName: map[string]*inner{"a": {held: 7}}, list: []inner{{held: "x"}}}
	if p := findPointer(reflect.ValueOf(&clean), targets, map[uintptr]bool{}, "outer"); p != "" {
		t.Fatalf("found %q in a value that holds nothing", p)
	}
	for name, v := range map[string]outer{
		"map":   {byName: map[string]*inner{"a": {held: target}}},
		"slice": {list: []inner{{}, {held: target}}},
	} {
		if p := findPointer(reflect.ValueOf(&v), targets, map[uintptr]bool{}, "outer"); p == "" {
			t.Fatalf("%s: retained store not found", name)
		}
	}
}

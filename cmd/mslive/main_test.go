package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"microscope/internal/core"
	"microscope/internal/online"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
)

// alertLines returns the ALERT lines of an mslive run's output.
func alertLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "ALERT ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestLiveMatchesMonitor: mslive, a front end over a serving-tier tenant,
// raises exactly the alerts of a bare online monitor built from the same
// spec and fed the same simulated trace in the same chunks with one flush.
// Its -listen surface is msserve's: /healthz is live, /metrics carries the
// tenant's labeled series, and the tenant's alerts endpoint holds the same
// alerts.
func TestLiveMatchesMonitor(t *testing.T) {
	args := []string{"-dur", "100ms", "-window", "20ms"}

	st, sp, err := parse(args)
	if err != nil {
		t.Fatal(err)
	}
	tr := simulate(st, nil, io.Discard)
	mon := online.New(tr.Meta, sp.Resolved().MonitorConfig(nil))
	var want []string
	for i := 0; i < len(tr.Records); i += chunk {
		for _, a := range mon.Feed(tr.Records[i:min(i+chunk, len(tr.Records))]) {
			want = append(want, fmt.Sprint("ALERT ", a))
		}
	}
	for _, a := range mon.Flush() {
		want = append(want, fmt.Sprint("ALERT ", a))
	}
	if len(want) == 0 {
		t.Fatal("the reference monitor raised no alerts; the comparison would be vacuous")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, append(args, "-listen", "127.0.0.1:0", "-hold", "1m"), &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("mslive exited before serving: %v", err)
	case <-time.After(5 * time.Minute):
		t.Fatal("mslive never finished the stream")
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d %q, want 200", code, body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, `microscope_monitor_windows_total{tenant="live"}`) ||
		!strings.Contains(body, "microscope_collector_") {
		t.Errorf("/metrics lacks the tenant's or the collector's series:\n%s", body)
	}
	_, body := get("/tenants/live/alerts")
	var served []json.RawMessage
	if err := json.Unmarshal([]byte(body), &served); err != nil {
		t.Fatalf("/tenants/live/alerts: %v: %s", err, body)
	}

	cancel() // end the -hold
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("mslive: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("mslive did not stop after cancel")
	}
	got := alertLines(out.String())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("mslive alerts differ from the bare monitor's:\n got %d: %q\nwant %d: %q", len(got), got, len(want), want)
	}
	if len(served) != len(want) {
		t.Errorf("/tenants/live/alerts holds %d alerts, want %d", len(served), len(want))
	}
	if !strings.Contains(out.String(), fmt.Sprintf("monitor: %d windows,", mon.Stats().Windows)) {
		t.Errorf("monitor line disagrees with the bare monitor's %d windows:\n%s", mon.Stats().Windows, out.String())
	}
}

// TestLoweredConfigsUnchanged pins what mslive's flags lower to: its
// defaults, and a bounded window with a heap watermark.
func TestLoweredConfigsUnchanged(t *testing.T) {
	ms := simtime.Millisecond
	cases := []struct {
		args []string
		res  resilience.Config
	}{
		{nil, resilience.Config{Policy: resilience.ShedDropOldest}},
		{[]string{"-ring-cap", "200000", "-max-mem", "512"}, resilience.Config{
			RingCapacity: 200000,
			Policy:       resilience.ShedDropOldest,
			Ladder:       resilience.LadderConfig{SoftRecords: 25000, HardRecords: 50000, MaxRecords: 100000, SoftBacklog: 2, HardBacklog: 4},
			MemSoftBytes: 256 << 20,
			MemHardBytes: 512 << 20,
		}},
	}
	diag := core.Config{VictimPercentile: 99, MaxRecursionDepth: 5}
	for _, c := range cases {
		_, sp, err := parse(c.args)
		if err != nil {
			t.Fatal(err)
		}
		r := sp.Resolved()
		mon := online.Config{
			Window: 100 * ms, Overlap: 20 * ms, MaxLookahead: 409600 * ms, ResyncAfter: 8,
			MinScore: 100, Diagnosis: diag, HoldOff: 100 * ms, Resilience: c.res,
		}
		pipe := pipeline.Config{Diagnosis: diag, Patterns: patterns.Config{Threshold: 0.01}}
		if got := r.MonitorConfig(nil); !reflect.DeepEqual(got, mon) {
			t.Errorf("%q: MonitorConfig =\n%+v\nwant\n%+v", c.args, got, mon)
		}
		if got := r.PipelineConfig(nil); !reflect.DeepEqual(got, pipe) {
			t.Errorf("%q: PipelineConfig =\n%+v\nwant\n%+v", c.args, got, pipe)
		}
		if got := r.ResilienceConfig(); !reflect.DeepEqual(got, c.res) {
			t.Errorf("%q: ResilienceConfig =\n%+v\nwant\n%+v", c.args, got, c.res)
		}
	}
}

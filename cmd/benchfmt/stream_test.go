package main

import "testing"

func modeRes(name string, nsPerOp float64) Result {
	return Result{Name: name, Metrics: map[string]float64{"ns_per_op": nsPerOp}}
}

func TestCheckStreamPassAndFail(t *testing.T) {
	sum := &Summary{Results: []Result{
		modeRes("mode=full", 9000),
		modeRes("mode=incr", 2000),
	}}
	out, skip := checkStream(sum, 3.0)
	if skip != "" {
		t.Fatalf("unexpected skip: %s", skip)
	}
	if out.Full != "mode=full" || out.Incr != "mode=incr" {
		t.Errorf("wrong endpoints: %+v", out)
	}
	if out.Speedup < 4.49 || out.Speedup > 4.51 {
		t.Errorf("speedup = %v, want 4.5", out.Speedup)
	}

	// mode=incr slower than the gate demands: the miss must surface.
	slow := &Summary{Results: []Result{
		modeRes("mode=full", 9000),
		modeRes("mode=incr", 4000),
	}}
	out, skip = checkStream(slow, 3.0)
	if skip != "" {
		t.Fatalf("slow run skipped: %q", skip)
	}
	if out.Speedup >= 3.0 {
		t.Errorf("insufficient speedup not surfaced: %+v", out)
	}
}

func TestCheckStreamSkips(t *testing.T) {
	pair := &Summary{Results: []Result{
		modeRes("mode=full", 9000),
		modeRes("mode=incr", 2000),
	}}
	if _, skip := checkStream(pair, 0); skip == "" {
		t.Error("-min-stream-speedup=0 did not disable the gate")
	}
	// A run with no mode pair (the pipeline benchmark stream) skips, so one
	// benchfmt binary serves both make targets.
	scaling := &Summary{Results: []Result{
		scaleRes("workers=1", 1, 8, 1000),
		scaleRes("workers=8", 8, 8, 250),
	}}
	if _, skip := checkStream(scaling, 3.0); skip == "" {
		t.Error("pairless run not skipped")
	}
	// Half a pair is not a pair.
	half := &Summary{Results: []Result{modeRes("mode=incr", 2000)}}
	if _, skip := checkStream(half, 3.0); skip == "" {
		t.Error("half-pair run not skipped")
	}
	// A pair with a zero ns/op (malformed summary) must skip, not divide.
	zero := &Summary{Results: []Result{
		modeRes("mode=full", 9000),
		{Name: "mode=incr", Metrics: map[string]float64{"windows_per_s": 80}},
	}}
	if _, skip := checkStream(zero, 3.0); skip == "" {
		t.Error("ns/op-less pair not skipped")
	}
}

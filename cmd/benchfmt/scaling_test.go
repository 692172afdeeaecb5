package main

import "testing"

func scaleRes(name string, workers, maxprocs int, nsPerOp float64) Result {
	return Result{
		Name: name, Workers: workers, Maxprocs: maxprocs,
		Metrics: map[string]float64{"ns_per_op": nsPerOp},
	}
}

func TestCheckScalingPassAndFail(t *testing.T) {
	sum := &Summary{Results: []Result{
		scaleRes("workers=1", 1, 8, 1000),
		scaleRes("workers=2", 2, 8, 600),
		scaleRes("workers=8", 8, 8, 250),
	}}
	outs, skip := checkScaling(sum, 1.0)
	if skip != "" {
		t.Fatalf("unexpected skip: %s", skip)
	}
	if len(outs) != 1 {
		t.Fatalf("want one family, got %v", outs)
	}
	o := outs[0]
	if o.Base != "workers=1" || o.Wide != "workers=8" {
		t.Errorf("wrong endpoints: %+v", o)
	}
	if o.Speedup < 3.99 || o.Speedup > 4.01 {
		t.Errorf("speedup = %v, want 4.0", o.Speedup)
	}

	// The same shape inverted (wide slower than narrow) must miss 1.0.
	inv := &Summary{Results: []Result{
		scaleRes("workers=1", 1, 8, 1000),
		scaleRes("workers=8", 8, 8, 1500),
	}}
	outs, skip = checkScaling(inv, 1.0)
	if skip != "" || len(outs) != 1 {
		t.Fatalf("inverted run: outs=%v skip=%q", outs, skip)
	}
	if outs[0].Speedup >= 1.0 {
		t.Errorf("negative scaling not surfaced: %+v", outs[0])
	}
}

func TestCheckScalingSkipsSingleProc(t *testing.T) {
	sum := &Summary{Results: []Result{
		scaleRes("workers=1", 1, 1, 1000),
		scaleRes("workers=8", 8, 1, 1500), // slower, but only one CPU
	}}
	outs, skip := checkScaling(sum, 1.0)
	if skip == "" || outs != nil {
		t.Fatalf("GOMAXPROCS=1 run not skipped: outs=%v skip=%q", outs, skip)
	}
	// Absent Maxprocs (legacy summaries) defaults to 1 and also skips.
	legacy := &Summary{Results: []Result{
		scaleRes("workers=1", 1, 0, 1000),
		scaleRes("workers=8", 8, 0, 1500),
	}}
	if _, skip := checkScaling(legacy, 1.0); skip == "" {
		t.Error("maxprocs-less summary not treated as single-proc")
	}
}

func TestCheckScalingDisabledAndDegenerate(t *testing.T) {
	sum := &Summary{Results: []Result{scaleRes("workers=1", 1, 8, 1000)}}
	if _, skip := checkScaling(sum, 0); skip == "" {
		t.Error("-min-speedup=0 did not disable the gate")
	}
	// One worker count only: nothing to compare.
	if outs, skip := checkScaling(sum, 1.0); skip == "" || outs != nil {
		t.Errorf("single-case run not skipped: %v %q", outs, skip)
	}
	// Results without workers= names are ignored.
	none := &Summary{Results: []Result{
		{Name: "plain", Maxprocs: 8, Metrics: map[string]float64{"ns_per_op": 5}},
	}}
	if _, skip := checkScaling(none, 1.0); skip == "" {
		t.Error("worker-less run not skipped")
	}
}

func TestCheckScalingGroupsFamiliesSeparately(t *testing.T) {
	sum := &Summary{Results: []Result{
		scaleRes("workers=1", 1, 8, 1000),
		scaleRes("workers=8", 8, 8, 200),
		scaleRes("observed/workers=1", 1, 8, 1200),
		scaleRes("observed/workers=8", 8, 8, 400),
	}}
	outs, skip := checkScaling(sum, 1.0)
	if skip != "" || len(outs) != 2 {
		t.Fatalf("want two families, got %v (%q)", outs, skip)
	}
	// Sorted by group pattern: observed/workers=* before workers=*.
	if outs[0].Group != "observed/workers=*" || outs[1].Group != "workers=*" {
		t.Errorf("family grouping wrong: %v", outs)
	}
	if outs[0].Speedup < 2.99 || outs[0].Speedup > 3.01 {
		t.Errorf("observed speedup = %v, want 3.0", outs[0].Speedup)
	}
	if outs[1].Speedup < 4.99 || outs[1].Speedup > 5.01 {
		t.Errorf("plain speedup = %v, want 5.0", outs[1].Speedup)
	}
}

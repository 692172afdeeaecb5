// Command benchfmt condenses a `go test -json -bench` stream into a
// compact machine-readable summary. It reads the JSON event stream on
// stdin, extracts benchmark result lines, and writes one JSON document:
//
//	{
//	  "benchmark": "BenchmarkDiagnosePipeline",
//	  "cpu": "Intel(R) Xeon(R) ...",
//	  "results": [
//	    {"name": "workers=1", "workers": 1, "iterations": 3,
//	     "ns_per_op": 1.2e10, "victims_per_s": 29.5,
//	     "b_per_op": 7.7e8, "allocs_per_op": 67348},
//	    ...
//	  ]
//	}
//
// Unknown metric units pass through under their unit name with "/" and
// non-alphanumerics mapped to "_", so custom testing.B ReportMetric
// units (like victims/s) need no special cases here.
//
// Two self-contained gates compare cases within the one run, so machine
// speed cancels out and no stored baseline is involved; -gate turns a miss
// into a non-zero exit. -min-speedup requires the widest workers=N case to
// beat the narrowest (exit 3), and -min-stream-speedup requires the run's
// mode=full ns/op to exceed mode=incr ns/op by the given factor (exit 4):
//
//	go test -bench BenchmarkStreamingWindows -json ... | benchfmt -gate -min-stream-speedup 3.0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		gate       = flag.Bool("gate", false, "exit non-zero when scaling misses -min-speedup or streaming misses -min-stream-speedup")
		minSpeedup = flag.Float64("min-speedup", 1.0, "required ns/op speedup of the widest workers=N case over the narrowest within this run (<=0 disables; skipped automatically at GOMAXPROCS=1)")
		minStream  = flag.Float64("min-stream-speedup", 0, "required ns/op speedup of mode=incr over mode=full within this run (<=0 disables; skipped when the run has no such pair)")
	)
	flag.Parse()

	sum, err := summarize(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfmt: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintf(os.Stderr, "benchfmt: %v\n", err)
		os.Exit(1)
	}

	exit := 0
	if badStream(sum, *minStream) && *gate {
		exit = 4
	}
	if badScaling(sum, *minSpeedup) && *gate {
		exit = 3
	}
	os.Exit(exit)
}

// badStream runs the full-vs-incremental streaming check and reports
// whether the paired speedup missed minSpeedup.
func badStream(sum *Summary, minSpeedup float64) bool {
	out, skip := checkStream(sum, minSpeedup)
	if skip != "" {
		fmt.Fprintf(os.Stderr, "benchfmt: %s\n", skip)
		return false
	}
	if out.Speedup < minSpeedup {
		fmt.Fprintf(os.Stderr, "benchfmt: stream speedup failure: %s (need %.2fx)\n", out, minSpeedup)
		return true
	}
	fmt.Fprintf(os.Stderr, "benchfmt: stream speedup ok: %s\n", out)
	return false
}

// badScaling runs the cross-worker-count scaling check and reports whether
// any benchmark family missed minSpeedup.
func badScaling(sum *Summary, minSpeedup float64) bool {
	outs, skip := checkScaling(sum, minSpeedup)
	if skip != "" {
		fmt.Fprintf(os.Stderr, "benchfmt: %s\n", skip)
		return false
	}
	bad := false
	for _, o := range outs {
		if o.Speedup < minSpeedup {
			bad = true
			fmt.Fprintf(os.Stderr, "benchfmt: scaling failure: %s (need %.2fx)\n", o, minSpeedup)
		} else {
			fmt.Fprintf(os.Stderr, "benchfmt: scaling ok: %s\n", o)
		}
	}
	return bad
}

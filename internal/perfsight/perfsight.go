// Package perfsight implements a PerfSight-style diagnoser [53], the
// second related system the paper positions against (§8): it identifies
// PERSISTENT bottlenecks on a software dataplane from aggregate packet
// drops and throughput counters. The paper's point — reproduced by the
// experiments here — is that such whole-run counters identify a constantly
// undersized element well, but say nothing about tail latency and
// transient drops, which need Microscope's queuing-period analysis.
package perfsight

import (
	"fmt"
	"sort"
	"strings"

	"microscope/internal/collector"
	"microscope/internal/simtime"
)

// Config tunes bottleneck detection.
type Config struct {
	// LossRatio flags components losing at least this fraction of their
	// input over the run (default 0.001).
	LossRatio float64
	// Utilization flags components processing at or above this fraction
	// of their peak rate over the run (default 0.9).
	Utilization float64
}

func (c *Config) setDefaults() {
	if c.LossRatio == 0 {
		c.LossRatio = 0.001
	}
	if c.Utilization == 0 {
		c.Utilization = 0.9
	}
}

// ElementReport is the per-NF aggregate view PerfSight works from.
type ElementReport struct {
	Comp string
	// In / Out are total packets entering the element's queue and
	// leaving the element over the run.
	In, Out int
	// Lost is In - Out - resident (counted at trace end).
	Lost int
	// Throughput is the achieved processing rate over the active span.
	Throughput simtime.Rate
	// Utilization is Throughput / peak rate.
	Utilization float64
	// Bottleneck marks elements the diagnosis flags.
	Bottleneck bool
	// Reason explains the flag ("loss", "saturation", "").
	Reason string
}

// Result is the ranked bottleneck report.
type Result struct {
	Elements []ElementReport
}

// Bottlenecks returns the flagged elements, most severe first.
func (r *Result) Bottlenecks() []ElementReport {
	var out []ElementReport
	for _, e := range r.Elements {
		if e.Bottleneck {
			out = append(out, e)
		}
	}
	return out
}

// Render prints the element table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %8s %12s %6s %s\n",
		"element", "in", "out", "lost", "throughput", "util", "verdict")
	for _, e := range r.Elements {
		verdict := "-"
		if e.Bottleneck {
			verdict = "BOTTLENECK (" + e.Reason + ")"
		}
		fmt.Fprintf(&b, "%-8s %10d %10d %8d %12s %5.0f%% %s\n",
			e.Comp, e.In, e.Out, e.Lost, e.Throughput, e.Utilization*100, verdict)
	}
	return b.String()
}

// Diagnose runs the PerfSight-style analysis over a collected trace: pure
// whole-run counters, no queuing information.
func Diagnose(tr *collector.Trace, cfg Config) *Result {
	cfg.setDefaults()
	type agg struct {
		in, out           int
		firstIn, lastIn   simtime.Time
		firstOut, lastOut simtime.Time
		seenIn, seenOut   bool
	}
	byComp := make(map[string]*agg)
	get := func(name string) *agg {
		a := byComp[name]
		if a == nil {
			a = &agg{}
			byComp[name] = a
		}
		return a
	}
	for i := range tr.Records {
		r := &tr.Records[i]
		n := len(r.IPIDs)
		switch r.Dir {
		case collector.DirWrite:
			dest := collector.ConsumerOf(r.Queue)
			a := get(dest)
			a.in += n
			if !a.seenIn {
				a.firstIn, a.seenIn = r.At, true
			}
			a.lastIn = r.At
		case collector.DirRead:
			// Reads are dequeues; outputs are counted at write/deliver.
		case collector.DirDeliver:
			a := get(r.Comp)
			a.out += n
			if !a.seenOut {
				a.firstOut, a.seenOut = r.At, true
			}
			a.lastOut = r.At
		}
		if r.Dir == collector.DirWrite {
			// A write is also the writing component's output.
			a := get(r.Comp)
			a.out += n
			if !a.seenOut {
				a.firstOut, a.seenOut = r.At, true
			}
			a.lastOut = r.At
		}
	}

	res := &Result{}
	for _, cm := range tr.Meta.Components {
		if cm.Kind == "source" {
			continue
		}
		a := byComp[cm.Name]
		if a == nil {
			continue
		}
		e := ElementReport{Comp: cm.Name, In: a.in, Out: a.out}
		e.Lost = a.in - a.out
		if e.Lost < 0 {
			e.Lost = 0
		}
		if a.seenOut && a.lastOut > a.firstOut {
			span := a.lastOut.Sub(a.firstOut)
			e.Throughput = simtime.Rate(float64(a.out) / span.Seconds())
		}
		if cm.PeakRate > 0 {
			e.Utilization = float64(e.Throughput) / float64(cm.PeakRate)
		}
		lossRatio := 0.0
		if a.in > 0 {
			lossRatio = float64(e.Lost) / float64(a.in)
		}
		switch {
		case lossRatio >= cfg.LossRatio:
			e.Bottleneck, e.Reason = true, "loss"
		case e.Utilization >= cfg.Utilization:
			e.Bottleneck, e.Reason = true, "saturation"
		}
		res.Elements = append(res.Elements, e)
	}
	sort.Slice(res.Elements, func(i, j int) bool {
		a, b := res.Elements[i], res.Elements[j]
		la, lb := float64(a.Lost)/maxi(a.In), float64(b.Lost)/maxi(b.In)
		if la != lb {
			return la > lb
		}
		if a.Utilization != b.Utilization {
			return a.Utilization > b.Utilization
		}
		return a.Comp < b.Comp
	})
	return res
}

func maxi(n int) float64 {
	if n <= 0 {
		return 1
	}
	return float64(n)
}

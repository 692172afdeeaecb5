// Package core implements Microscope's offline diagnosis (paper §4): victim
// selection, queuing-period local diagnosis (§4.1), propagation diagnosis
// via timespan analysis across chains and DAGs (§4.2), recursive diagnosis
// of PreSet packets (§4.3), and emission of packet-level causal relations
// ready for pattern aggregation (§4.4).
//
// The engine consumes only the reconstructed trace store — batch
// timestamps, batch sizes, IPIDs, egress five-tuples, deployment topology,
// and offline-measured peak rates. It never sees simulator ground truth.
package core

import (
	"fmt"
	"sort"

	"microscope/internal/obs"
	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// CulpritKind classifies a root cause.
type CulpritKind uint8

const (
	// CulpritSourceTraffic blames input traffic from the source (e.g. a
	// burst): positive S_i attributed to the traffic source.
	CulpritSourceTraffic CulpritKind = iota
	// CulpritLocalProcessing blames slow processing at an NF (interrupt,
	// bug, cache behaviour): positive S_p at that NF.
	CulpritLocalProcessing
)

// String implements fmt.Stringer.
func (k CulpritKind) String() string {
	switch k {
	case CulpritSourceTraffic:
		return "traffic"
	case CulpritLocalProcessing:
		return "processing"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// VictimKind classifies what the victim suffered.
type VictimKind uint8

const (
	// VictimLatency marks packets beyond the latency threshold.
	VictimLatency VictimKind = iota
	// VictimLoss marks packets whose records vanish mid-graph.
	VictimLoss
)

// String implements fmt.Stringer.
func (k VictimKind) String() string {
	switch k {
	case VictimLoss:
		return "loss"
	default:
		return "latency"
	}
}

// Victim is a packet/NF pair selected for diagnosis.
type Victim struct {
	// Journey indexes the store's journeys.
	Journey int
	// Comp is the NF where the victim's local performance was abnormal.
	Comp string
	// ArriveAt is when the victim entered Comp's queue.
	ArriveAt simtime.Time
	// QueueDelay is the time spent in Comp's queue.
	QueueDelay simtime.Duration
	// Kind is the symptom.
	Kind VictimKind
	// Tuple is the victim's flow when known (delivered packets).
	Tuple    packet.FiveTuple
	HasTuple bool
}

// Cause is one ranked root cause for a victim.
type Cause struct {
	// Comp is the culprit component ("source" for traffic culprits).
	Comp string
	// Kind classifies the culprit.
	Kind CulpritKind
	// Score quantifies the culprit's contribution, in packets (the
	// S_i / S_p units of §4.1).
	Score float64
	// At is when the culprit behaviour began (queuing-period start for
	// processing culprits, first culprit-packet emission for traffic
	// culprits). Victim.ArriveAt - At is the Figure 15 time gap.
	At simtime.Time
	// CulpritJourneys are the journeys of the packets implicated by this
	// cause (PreSet packets at the culprit), for pattern aggregation.
	CulpritJourneys []int
}

// Diagnosis is the per-victim output: causes ranked by descending score.
type Diagnosis struct {
	Victim Victim
	Causes []Cause
}

// RankOf returns the 1-based rank of the first cause matching the
// predicate, or 0 if absent. Used by the evaluation to score accuracy.
func (d *Diagnosis) RankOf(match func(Cause) bool) int {
	for i, c := range d.Causes {
		if match(c) {
			return i + 1
		}
	}
	return 0
}

// TopCauses merges every diagnosis's causes into one list of
// <component, kind> culprits with summed scores and the earliest onset,
// ranked by descending score (ties keep first-seen order), and cut to
// limit entries when limit > 0: a deployment-wide "what is wrong right
// now" view.
func TopCauses(diags []Diagnosis, limit int) []Cause {
	type key struct {
		comp string
		kind CulpritKind
	}
	at := make(map[key]int)
	var out []Cause
	for i := range diags {
		for _, c := range diags[i].Causes {
			k := key{c.Comp, c.Kind}
			j, ok := at[k]
			if !ok {
				at[k] = len(out)
				c.CulpritJourneys = nil
				out = append(out, c)
				continue
			}
			out[j].Score += c.Score
			out[j].At = min(out[j].At, c.At)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Engine defaults for the Config knobs left zero.
const (
	// DefaultVictimPercentile selects latency victims above the 99th
	// percentile of delivered latency.
	DefaultVictimPercentile = 99
	// DefaultMaxRecursionDepth is the paper's observed maximum recursion
	// depth on the 16-NF topology.
	DefaultMaxRecursionDepth = 5
)

// Fixed engine parameters.
const (
	// abnormalStdDevs is k in the §4.1 abnormality test.
	abnormalStdDevs = 1
	// minScore prunes causes below this many packets.
	minScore = 1
	// traceEndSlack: journeys truncated within this duration of the last
	// record are treated as in-flight, not lost.
	traceEndSlack = 2 * simtime.Millisecond
)

// Config tunes the diagnosis.
type Config struct {
	// VictimPercentile selects latency victims above this percentile of
	// delivered latency (default 99).
	VictimPercentile float64
	// MaxRecursionDepth caps §4.3 recursion (default 5, the paper's
	// observed maximum on the 16-NF topology).
	MaxRecursionDepth int
	// MaxVictims caps how many victims are diagnosed, 0 = no cap.
	MaxVictims int
	// LossVictimsWhenDegraded keeps loss-victim classification active
	// even when the store's health is degraded. By default a
	// known-damaged trace suppresses loss victims: a journey whose
	// records vanish because the *trace* lost records is
	// indistinguishable from a real drop, and a lossy trace would flood
	// the diagnosis with phantom losses.
	LossVictimsWhenDegraded bool
	// QueueThreshold is the §7 extension: a queuing period starts when
	// the queue last held at most this many packets, instead of zero.
	// Use it when NF queues rarely empty (sustained moderate overload);
	// the default 0 is the paper's base definition.
	QueueThreshold int
	// Workers bounds the per-victim diagnosis fan-out (0 = GOMAXPROCS,
	// 1 = fully sequential). Any value produces byte-identical output:
	// victims are diagnosed independently against the immutable trace
	// index and merged in victim order.
	Workers int
	// ContainPanics is the worker-task crash-containment boundary: a panic
	// inside one victim's diagnosis quarantines that victim (its Diagnosis
	// carries the Victim and no causes) instead of killing the process.
	// The single-victim entry points are bounded the same way: DiagnoseVictim
	// quarantines its victim, Explain returns the Explanation with no tree
	// and FindVictims returns no victims. Contained panics are counted
	// (Engine.ContainedPanics and the microscope_diag_victim_panics_total
	// counter). Off by default: the offline tools prefer a loud crash.
	ContainPanics bool
	// ChaosHook, when non-nil, runs before each victim's diagnosis with
	// scope "victim:<index>" (DiagnoseVictim and Explain are victim 0) and
	// before FindVictims' selection with scope "victims" — the chaos
	// harness injects worker-task panics and stalls through it. Hook
	// decisions keyed on the index are identical for every worker count,
	// keeping chaos runs deterministic.
	// Never set in production.
	ChaosHook func(scope string)
	// Obs receives diagnosis metrics (victims diagnosed, memo hit/miss,
	// scratch-arena reuse, per-victim latency spans). nil falls back to
	// the process-wide obs.Default(), which is nil — disabled — unless
	// installed; a disabled registry costs a nil check per event.
	Obs *obs.Registry
}

func (c *Config) setDefaults() {
	if c.VictimPercentile == 0 {
		c.VictimPercentile = DefaultVictimPercentile
	}
	if c.MaxRecursionDepth == 0 {
		c.MaxRecursionDepth = DefaultMaxRecursionDepth
	}
}

package main

import (
	"time"

	"microscope"
	"microscope/internal/collector"
	"microscope/internal/spec"
)

// workload is one named traffic mix. Rates and sizes are constants: the
// harness never tunes them to the host.
type workload struct {
	name string
	// offline runs msdiag on a trace directory; the others drive msserve.
	offline bool
	// slide and overlap are the tenant's window geometry.
	slide, overlap time.Duration
	// bodyRecs is the number of records per POST.
	bodyRecs int
	// json sends JSON bodies instead of MST2.
	json bool
	// rate is the open-loop send rate in records/s; 0 is a closed loop.
	rate float64
}

const tenantID = "bench"

var workloads = []workload{
	{name: "serve-bulk-sat", slide: 2 * time.Millisecond, overlap: time.Millisecond, bodyRecs: 2000},
	{name: "serve-bulk-json", slide: 2 * time.Millisecond, overlap: time.Millisecond, bodyRecs: 2000, json: true, rate: 100_000},
	{name: "serve-fine-paced", slide: 250 * time.Microsecond, overlap: 4750 * time.Microsecond, bodyRecs: 500, rate: 100_000},
	{name: "offline-batch", offline: true},
}

// encode renders one body's records in the workload's wire format.
func (w workload) encode(recs []collector.BatchRecord) []byte {
	if w.json {
		return encodeJSON(recs)
	}
	return encodeMST2(recs)
}

// contentType is what msserve tells the two wire formats apart by.
func (w workload) contentType() string {
	if w.json {
		return "application/json"
	}
	return "application/octet-stream"
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizes of the generated inputs; short shrinks them for the tests.
type sizes struct {
	// lapDur is the simulated traffic in one lap of the serve workloads.
	lapDur microscope.Duration
	// offlineDur and offlineVictims size the offline-batch trace and its
	// msdiag -max-victims cap; offlineReps is the fewest msdiag runs.
	offlineDur     microscope.Duration
	offlineVictims int
	offlineReps    int
	// setups is how often set-up runs; setup_s is the median. The offline
	// set-up is a fifth of a second, short enough for one collection to
	// double it, so it runs more often.
	setups, offlineSetups int
}

func sizesFor(short bool) sizes {
	if short {
		return sizes{lapDur: 20 * microscope.Millisecond, offlineDur: 10 * microscope.Millisecond, offlineVictims: 60, offlineReps: 2, setups: 1, offlineSetups: 1}
	}
	return sizes{lapDur: 100 * microscope.Millisecond, offlineDur: 20 * microscope.Millisecond, offlineVictims: 120, offlineReps: 3, setups: 5, offlineSetups: 15}
}

// offlineTraceSeed fixes offline-batch's traffic and faults. AutoFocus
// time swings threefold with which flows the victims belong to (see
// README.md), so a trace drawn from --seed would measure the draw, not the
// program; --seed moves this trace in time instead.
const offlineTraceSeed = 8

// tenantSpec is the spec a serve workload's tenant runs. window_deadline,
// max_mem_bytes and ring_capacity stay unset so no wall-clock or heap
// reading reaches the degradation ladder: the output depends on the
// records alone.
func (w workload) tenantSpec(meta microscope.TraceMeta) *spec.PipelineSpec {
	sp := &spec.PipelineSpec{Version: spec.Version, Tenant: tenantID, Topology: spec.FromMeta(meta)}
	sp.Stream.Slide = spec.D(w.slide)
	sp.Stream.Overlap = spec.D(w.overlap)
	sp.Diagnosis.Workers = 1
	return sp
}

// offlineSpec mirrors the msdiag flags offline-batch passes, for the
// in-process reference.
func offlineSpec(maxVictims int) *spec.PipelineSpec {
	sp := &spec.PipelineSpec{Version: spec.Version}
	sp.Diagnosis.MaxVictims = maxVictims
	return sp
}

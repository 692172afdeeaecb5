package resilience

import (
	"runtime/metrics"

	"microscope/internal/obs"
)

// heapMetric is the live heap-object bytes, the quantity the stream's heap
// gauge reads as well.
const heapMetric = "/memory/classes/heap/objects:bytes"

// MemWatcher samples the Go heap against a limit and turns the reading
// into ladder escalation steps: half the limit is the soft watermark, the
// limit itself the hard one. Heap size is a wall-machine signal — the same
// trace can sit at different heap sizes across runs — so the watcher is a
// safety net against the monitor itself becoming the memory hog, not part
// of the determinism contract; the limit defaults to off.
//
// Every call reads the heap through runtime/metrics, which does not stop
// the world, so there is no sampling interval.
type MemWatcher struct {
	// Limit is the hard watermark in bytes (0 = off).
	Limit int64
	// Gauge, when non-nil, receives each heap sample.
	Gauge *obs.Gauge

	sample [1]metrics.Sample
}

// Enabled reports whether a limit is set.
func (w *MemWatcher) Enabled() bool {
	return w != nil && w.Limit > 0
}

// Steps returns the ladder escalation the current heap demands: 0 below
// half the limit, 1 from there to the limit, 2 at or beyond it.
func (w *MemWatcher) Steps() int {
	if !w.Enabled() {
		return 0
	}
	w.sample[0].Name = heapMetric
	metrics.Read(w.sample[:])
	var heap int64
	if v := w.sample[0].Value; v.Kind() == metrics.KindUint64 {
		heap = int64(v.Uint64())
	}
	w.Gauge.Set(heap)
	switch {
	case heap >= w.Limit:
		return 2
	case heap >= w.Limit/2:
		return 1
	}
	return 0
}

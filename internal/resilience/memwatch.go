package resilience

import (
	"runtime/metrics"

	"microscope/internal/obs"
)

// heapMetric is the live heap-object bytes, the quantity the stream's heap
// gauge reads as well.
const heapMetric = "/memory/classes/heap/objects:bytes"

// MemWatcher samples the Go heap against soft/hard watermarks and turns
// the reading into ladder escalation steps. Heap size is a wall-machine
// signal — the same trace can sit at different heap sizes across runs —
// so the watcher is a safety net against the monitor itself becoming the
// memory hog, not part of the determinism contract; both watermarks
// default to off.
//
// Every call reads the heap through runtime/metrics, which does not stop
// the world, so there is no sampling interval.
type MemWatcher struct {
	// SoftBytes escalates the degradation ladder by one step when the
	// heap exceeds it (0 = off).
	SoftBytes int64
	// HardBytes escalates by two steps (0 = off).
	HardBytes int64
	// Gauge, when non-nil, receives each heap sample.
	Gauge *obs.Gauge

	sample [1]metrics.Sample
}

// Enabled reports whether any watermark is set.
func (w *MemWatcher) Enabled() bool {
	return w != nil && (w.SoftBytes > 0 || w.HardBytes > 0)
}

// Steps returns the ladder escalation the current heap demands: 0 below
// the soft watermark, 1 between soft and hard, 2 at or beyond hard.
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
	case w.HardBytes > 0 && heap >= w.HardBytes:
		return 2
	case w.SoftBytes > 0 && heap >= w.SoftBytes:
		return 1
	}
	return 0
}

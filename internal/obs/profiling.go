package obs

import "runtime"

// Contention-profiling defaults: sample 1/5 of mutex contention events
// and every blocking event that stalls ≥100µs. Cheap enough for an
// always-on daemon, dense enough that a hot lock shows up in minutes.
const (
	DefaultMutexProfileFraction = 5
	DefaultBlockProfileRateNs   = 100_000
)

// EnableContentionProfiling turns on the runtime's mutex and block
// profilers so the /debug/pprof/mutex and /debug/pprof/block endpoints
// of the serving tier's HTTP surface carry real samples. mutexFraction is passed to
// runtime.SetMutexProfileFraction (sample 1/n contention events);
// blockRateNs to runtime.SetBlockProfileRate (sample blocking events
// stalling at least that many nanoseconds). Zero or negative values take
// the defaults above. Returns the previous mutex fraction, as the
// runtime reports it.
func EnableContentionProfiling(mutexFraction, blockRateNs int) int {
	if mutexFraction <= 0 {
		mutexFraction = DefaultMutexProfileFraction
	}
	if blockRateNs <= 0 {
		blockRateNs = DefaultBlockProfileRateNs
	}
	prev := runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRateNs)
	return prev
}

// DisableContentionProfiling switches both profilers back off.
func DisableContentionProfiling() {
	runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(0)
}

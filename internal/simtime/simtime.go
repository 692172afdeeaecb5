// Package simtime provides the simulated clock used throughout the
// repository. All timestamps are integer nanoseconds since the start of a
// simulation run, which keeps the event engine deterministic and free of
// floating-point drift, and makes microsecond-scale reasoning (the paper's
// operating regime) exact.
package simtime

import (
	"fmt"
	"time"
)

// Time is a simulated timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a simulated time span in nanoseconds.
type Duration int64

// Common durations, mirroring the time package so that call sites read
// naturally (e.g. 500*simtime.Microsecond).
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Zero is the simulation epoch.
const Zero Time = 0

// Never is a sentinel far in the future, used for "no deadline".
const Never Time = 1<<63 - 1

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the timestamp as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the timestamp in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns the timestamp in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Std converts t to a time.Duration offset (for formatting only).
func (t Time) Std() time.Duration { return time.Duration(t) }

// String renders the timestamp with microsecond precision.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.3fus", t.Micros())
}

// Seconds returns the duration as fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration in microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis returns the duration in milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// String renders the duration with microsecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Micros()) }

// FromSeconds converts fractional seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// FromMicros converts fractional microseconds to a Duration.
func FromMicros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Rate describes a packet rate and converts between packets/second and the
// per-packet service interval used by the event engine.
type Rate float64

// PPS constructs a Rate from packets per second.
func PPS(pps float64) Rate { return Rate(pps) }

// MPPS constructs a Rate from millions of packets per second.
func MPPS(mpps float64) Rate { return Rate(mpps * 1e6) }

// Interval returns the per-packet service time at this rate. A zero or
// negative rate yields Never-like huge interval to make misconfiguration
// loud rather than divide-by-zero quiet.
func (r Rate) Interval() Duration {
	if r <= 0 {
		return Duration(Never)
	}
	return Duration(float64(Second)/float64(r) + 0.5)
}

// PPS returns the rate in packets per second.
func (r Rate) PPS() float64 { return float64(r) }

// Packets returns how many packets this rate processes in d, rounded down.
func (r Rate) Packets(d Duration) int64 {
	if d <= 0 || r <= 0 {
		return 0
	}
	return int64(float64(r) * d.Seconds())
}

// PacketsF returns the fractional packet count this rate processes in d.
func (r Rate) PacketsF(d Duration) float64 {
	if d <= 0 || r <= 0 {
		return 0
	}
	return float64(r) * d.Seconds()
}

// String renders the rate in Mpps when large, pps otherwise.
func (r Rate) String() string {
	if r >= 1e6 {
		return fmt.Sprintf("%.3fMpps", float64(r)/1e6)
	}
	return fmt.Sprintf("%.0fpps", float64(r))
}

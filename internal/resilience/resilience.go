// Package resilience keeps the online diagnosis path alive under
// conditions the offline tool never faces: sustained overload, stalled or
// lossy record streams, and bugs that panic halfway through a window. The
// paper's Microscope runs offline over a finished trace (§5); a monitor
// that is itself the outage is worse than no monitor, so the streaming
// shell wraps every window in four independent defenses:
//
//   - bounded ingest: a record capacity per window (the sealed overlap a
//     window carries plus the records the monitor buffers until its seal)
//     and an explicit load-shedding policy (drop the oldest un-diagnosed
//     window vs reject new arrivals), every record kept from the stream
//     counted;
//   - a degradation ladder: each window runs at the cheapest rung the
//     current pressure allows — full diagnosis → skip AutoFocus patterns →
//     victims-only → window skipped — decided deterministically from the
//     window's record count, the ingest backlog, and the memory watermark,
//     and reported so operators see the system shedding rather than lying;
//   - crash containment: panic recovery at window, stage, and worker-task
//     granularity (Contain is the only sanctioned recover() site — the
//     mslint containment analyzer enforces this), quarantining the
//     offending window the way reconstruction quarantines ambiguous
//     journeys, while the stream stays alive;
//   - bounded retry: capped exponential backoff with deterministic jitter
//     (RetryPolicy), which the serving tier applies to remediation-hook
//     deliveries.
//
// Determinism: ladder decisions from record counts and backlog are pure
// functions of the fed records, so a degraded window's output is
// byte-identical for any worker count. The wall-clock defenses — the
// per-window deadline and the heap watermark — are machine-dependent
// safety nets, disabled by default and excluded from that contract; when
// they fire the window is skipped and counted, never half-reported.
package resilience

import (
	"fmt"
	"strings"
	"time"
)

// Level is one rung of the degradation ladder. Higher levels shed more
// work; ordering is significant (a Level can be escalated by adding
// steps).
type Level uint8

const (
	// Full runs everything the caller asked for.
	Full Level = iota
	// NoPatterns skips the §4.4 AutoFocus pattern aggregation; per-victim
	// diagnoses still run.
	NoPatterns
	// VictimsOnly stops after victim selection: symptoms are still
	// surfaced and counted, causal diagnosis is shed.
	VictimsOnly
	// Skipped sheds the whole window: it is counted and reported, never
	// analysed.
	Skipped
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Full:
		return "full"
	case NoPatterns:
		return "no-patterns"
	case VictimsOnly:
		return "victims-only"
	case Skipped:
		return "skipped"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// escalate raises l by steps rungs, clamped at Skipped.
func (l Level) escalate(steps int) Level {
	v := int(l) + steps
	if v > int(Skipped) {
		v = int(Skipped)
	}
	return Level(v)
}

// ShedPolicy selects what a window at RingCapacity sacrifices.
type ShedPolicy uint8

const (
	// ShedDropOldest abandons the oldest un-diagnosed window to make room
	// for new records: fresh data wins, history loses. This is the default
	// — a monitor's value is in the present.
	ShedDropOldest ShedPolicy = iota
	// ShedRejectNew refuses new arrivals while the window is full: queued
	// history wins, fresh data loses.
	ShedRejectNew
)

// String implements fmt.Stringer.
func (p ShedPolicy) String() string {
	switch p {
	case ShedRejectNew:
		return "reject-new"
	default:
		return "drop-oldest"
	}
}

// ParseShedPolicy parses the CLI spelling of a shed policy.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "drop-oldest", "drop_oldest", "oldest":
		return ShedDropOldest, nil
	case "reject-new", "reject_new", "reject":
		return ShedRejectNew, nil
	default:
		return ShedDropOldest, fmt.Errorf("resilience: unknown shed policy %q (want drop-oldest or reject-new)", s)
	}
}

// LadderConfig sets the deterministic thresholds of the degradation
// ladder. Zero-valued fields disable their rung; a zero LadderConfig never
// degrades.
type LadderConfig struct {
	// SoftRecords: a window holding more records than this runs at
	// NoPatterns.
	SoftRecords int
	// HardRecords: above this, VictimsOnly.
	HardRecords int
	// MaxRecords: above this, the window is Skipped outright.
	MaxRecords int
	// SoftBacklog escalates the base rung by one step when at least this
	// many whole windows are queued behind the one being diagnosed.
	SoftBacklog int
	// HardBacklog escalates by two steps.
	HardBacklog int
}

// Enabled reports whether any rung can trigger.
func (c LadderConfig) Enabled() bool {
	return c.SoftRecords > 0 || c.HardRecords > 0 || c.MaxRecords > 0 ||
		c.SoftBacklog > 0 || c.HardBacklog > 0
}

// Decide picks the rung for one window from deterministic pressure
// signals: the window's record count, how many whole windows of backlog
// are queued behind it, and the memory-watcher escalation (0 = none,
// 1 = soft watermark crossed, 2 = hard). Given the same fed records the
// decision is identical on every machine and for every worker count;
// only memSteps (a wall-machine signal, usually 0) can vary.
func (c LadderConfig) Decide(records, backlogWindows int, memSteps int) Level {
	base := Full
	switch {
	case c.MaxRecords > 0 && records > c.MaxRecords:
		base = Skipped
	case c.HardRecords > 0 && records > c.HardRecords:
		base = VictimsOnly
	case c.SoftRecords > 0 && records > c.SoftRecords:
		base = NoPatterns
	}
	steps := memSteps
	switch {
	case c.HardBacklog > 0 && backlogWindows >= c.HardBacklog:
		steps += 2
	case c.SoftBacklog > 0 && backlogWindows >= c.SoftBacklog:
		steps++
	}
	return base.escalate(steps)
}

// AutoLadder derives a ladder from a RingCapacity: the rungs are fractions
// of it, so degradation begins well before shedding does and the ladder
// scales with whatever bound the operator chose.
func AutoLadder(ringCapacity int) LadderConfig {
	if ringCapacity <= 0 {
		return LadderConfig{}
	}
	return LadderConfig{
		SoftRecords: ringCapacity / 8,
		HardRecords: ringCapacity / 4,
		MaxRecords:  ringCapacity / 2,
		SoftBacklog: 2,
		HardBacklog: 4,
	}
}

// Config bundles the overload defenses the online monitor threads through
// its windows (a serving-tier tenant's spec lowers to one). The zero value
// disables everything — unbounded ingest, no degradation, panics
// propagate — which is the pre-resilience behaviour.
type Config struct {
	// RingCapacity bounds a window's records (0 = unbounded): the sealed
	// overlap the window carries plus the records the monitor buffers
	// until its seal — the count the ladder reads. The name is the spec's
	// ring_capacity.
	RingCapacity int
	// Policy selects what a full window sheds.
	Policy ShedPolicy
	// Ladder sets the degradation thresholds (zero = never degrade).
	Ladder LadderConfig
	// WindowDeadline is the wall-clock budget for one window's diagnosis
	// (0 = none). A window that overruns is cut off via context
	// cancellation, counted, and reported as skipped — a machine-dependent
	// safety net outside the determinism contract.
	WindowDeadline time.Duration
	// MemSoftBytes and MemHardBytes are heap watermarks (0 = off): crossing
	// the soft watermark escalates the ladder one step, the hard watermark
	// two. Heap size is a wall-machine signal; see the package comment.
	MemSoftBytes int64
	MemHardBytes int64
	// ContainPanics converts panics inside a window's pipeline — per
	// stage and per worker task — into a quarantined window instead of a
	// dead process.
	ContainPanics bool
}

// Enabled reports whether any defense is active.
func (c Config) Enabled() bool {
	return c.RingCapacity > 0 || c.Ladder.Enabled() || c.WindowDeadline > 0 ||
		c.MemSoftBytes > 0 || c.MemHardBytes > 0 || c.ContainPanics
}

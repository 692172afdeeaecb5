// Package chaostest soaks the online diagnosis path under injected
// overload, transport corruption, truncation, and panics, and asserts the
// resilience contract: the stream never dies, memory stays bounded, every
// loss is counted, and windows outside the blast radius produce
// byte-identical alerts to a fault-free run. The monitor is driven the way
// a serving-tier tenant's ingest drives it: each transport segment is one
// binary ingest body, decoded tolerantly and fed, with one flush at the end.
//
// The harness is deliberately deterministic: every fault is seeded and
// panic injection is keyed on window/victim indices — so a chaos run is
// reproducible bit-for-bit, for any worker count, and "run twice, compare
// everything" is itself one of the assertions.
package chaostest

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"microscope/internal/collector"
	"microscope/internal/core"
	"microscope/internal/faults"
	"microscope/internal/nfsim"
	"microscope/internal/obs"
	"microscope/internal/online"
	"microscope/internal/packet"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// Config sizes a soak.
type Config struct {
	// Windows is how many analysis windows the stream spans (default 1100).
	Windows int
	// Window is the analysis window length (default 500µs).
	Window simtime.Duration
	// Overlap carried between windows (default Window/5).
	Overlap simtime.Duration
	// RatePPS is the offered load (default 150_000 pps).
	RatePPS float64
	// Seed drives the faults.
	Seed int64
	// Workers is the per-window diagnosis fan-out.
	Workers int
	// SegRecords is the encoded-transport segment size (default 2048).
	SegRecords int
}

func (c *Config) setDefaults() {
	if c.Windows == 0 {
		c.Windows = 1100
	}
	if c.Window == 0 {
		c.Window = 500 * simtime.Microsecond
	}
	if c.Overlap == 0 {
		c.Overlap = c.Window / 5
	}
	if c.RatePPS == 0 {
		c.RatePPS = 150_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SegRecords == 0 {
		c.SegRecords = 2048
	}
}

// Stream is the generated input: a deployment trace plus the window
// geometry derived from it.
type Stream struct {
	Meta    collector.Meta
	Records []collector.BatchRecord
	// MidStart/MidEnd bound the chaos blast radius, as window indices:
	// faults are injected only into windows [MidStart, MidEnd).
	MidStart, MidEnd int
	cfg              Config
}

// BuildStream simulates a 2-NF chain long enough to span cfg.Windows
// analysis windows, with periodic interrupts at the downstream NF so real
// victims (and alerts) occur throughout the run — including outside the
// blast radius, where the byte-identical comparison needs signal.
func BuildStream(cfg Config) *Stream {
	cfg.setDefaults()
	col := collector.New(collector.Config{})
	// Queue depth 64: an interrupt's backlog queues (and yields latency
	// victims with real blame) instead of overflowing into drops.
	sim := nfsim.BuildChain(col, 64,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
	)
	dur := simtime.Duration(cfg.Windows) * cfg.Window
	iv := simtime.PPS(cfg.RatePPS).Interval()
	var ems []traffic.Emission
	i := 0
	for tt := simtime.Time(0); tt < simtime.Time(dur); tt = tt.Add(iv) {
		ems = append(ems, traffic.Emission{
			At: tt,
			Flow: packet.FiveTuple{
				SrcIP: packet.IPFromOctets(10, 0, 0, byte(i%50)), DstIP: packet.IPFromOctets(23, 0, 0, 1),
				SrcPort: uint16(1024 + i%50), DstPort: 80, Proto: packet.ProtoTCP,
			},
			Size: 64, Burst: -1,
		})
		i++
	}
	sim.LoadSchedule(&traffic.Schedule{Emissions: ems})
	// One interrupt every ~40 windows, placed mid-window so the episode
	// does not straddle a comparison-margin boundary.
	step := 40 * cfg.Window
	for at := simtime.Time(5 * cfg.Window / 2); at < simtime.Time(dur); at = at.Add(step) {
		sim.InjectInterrupt("fw1", at, simtime.Duration(4*cfg.Window/5), "chaos")
	}
	sim.Run(simtime.Time(dur) + simtime.Time(20*cfg.Window))
	tr := col.Trace(collector.MetaOf(sim))
	return &Stream{
		Meta:     tr.Meta,
		Records:  tr.Records,
		MidStart: cfg.Windows / 3,
		MidEnd:   2 * cfg.Windows / 3,
		cfg:      cfg,
	}
}

// WithWorkers returns a copy of the stream whose runs use n diagnosis
// workers; the simulated records are shared, not rebuilt.
func (s *Stream) WithWorkers(n int) *Stream {
	c := *s
	c.cfg.Workers = n
	return &c
}

// windowIndex maps a timestamp onto its analysis-window index.
func (s *Stream) windowIndex(at simtime.Time) int {
	return int(simtime.Duration(at) / s.cfg.Window)
}

// midSpan returns the blast radius as a time range [from, to).
func (s *Stream) midSpan() (from, to simtime.Time) {
	return simtime.Time(simtime.Duration(s.MidStart) * s.cfg.Window),
		simtime.Time(simtime.Duration(s.MidEnd) * s.cfg.Window)
}

// FlushCounts reproduces the monitor's per-window record count (the
// ladder's input): for window w, the records in (end(w-1)-Overlap, end(w)]
// — the window body plus the retained overlap tail.
func FlushCounts(recs []collector.BatchRecord, cfg Config) []int {
	cfg.setDefaults()
	counts := make([]int, cfg.Windows+2)
	for _, r := range recs {
		w := int(simtime.Duration(r.At) / cfg.Window)
		if w >= len(counts) {
			continue
		}
		counts[w]++
		// The overlap tail is re-counted by the next window's flush.
		nextStart := simtime.Duration(w+1) * cfg.Window
		if simtime.Duration(r.At) > nextStart-cfg.Overlap && w+1 < len(counts) {
			counts[w+1]++
		}
	}
	return counts
}

// Chaos describes the injected adversary for one run.
type Chaos struct {
	// RecordFaults corrupts the blast-radius records (drop/dup/reorder/
	// truncate) before encoding.
	RecordFaults faults.Config
	// Overload amplifies blast-radius windows: window w is duplicated
	// Overload[(w-MidStart)%len(Overload)]-fold, so a repeating pattern of
	// factors walks the ladder rungs deterministically. Empty = no
	// amplification beyond RecordFaults duplication.
	Overload []int
	// CorruptSegments applies byte-level damage to every encoded segment
	// wholly inside the blast radius whose index satisfies idx%3==0.
	CorruptSegments faults.StreamConfig
	// BadMagicSegment poisons one in-blast segment's header entirely, so
	// the segment has no usable header and is lost whole (msserve answers
	// such a body with 400).
	BadMagicSegment bool
	// QuarantineWindows panics at stage scope in every n-th blast-radius
	// window (0 = never): the whole window must be quarantined.
	QuarantineWindows int
	// VictimPanicWindows panics at victim scope (victims 0 and 3) in
	// every n-th blast-radius window (0 = never): only those victims may
	// be quarantined.
	VictimPanicWindows int
}

// DefaultChaos is the full adversary: every fault class at once.
func DefaultChaos(seed int64) Chaos {
	return Chaos{
		RecordFaults: faults.Config{
			Seed:         seed + 100,
			DropRate:     0.02,
			DupRate:      0.9, // inflates blast-radius windows past the ladder rungs
			TruncateRate: 0.02,
			ReorderRate:  0.05,
		},
		// Rung walk: with ~1.9x duplication already applied, amp 1 lands
		// past Soft, amp 4 past Hard (victims-only), amp 8 past Max
		// (skipped). Period 7 is coprime with both panic periods below, so
		// every fault class hits windows at every rung.
		Overload:           []int{1, 1, 4, 1, 1, 8, 1},
		CorruptSegments:    faults.StreamConfig{Seed: seed + 200, FlipRate: 0.0005, TruncateFrac: 0.97},
		BadMagicSegment:    true,
		QuarantineWindows:  11,
		VictimPanicWindows: 5,
	}
}

// Result is one monitored run's full observable output.
type Result struct {
	Alerts []online.Alert
	Stats  online.Stats
	// Fingerprints maps each alerting window's index to the concatenated
	// rendering of its alerts, in emission order.
	Fingerprints map[int]string
	// LastDegradation is the final ladder rung.
	LastDegradation resilience.Level
	// PeakHeap is the largest heap sample observed across the run.
	PeakHeap int64
	// Registry holds the run's metrics for exposure assertions.
	Registry *obs.Registry
	// Decode accumulates transport-decode damage; a segment lost whole
	// counts as one skipped frame and all of its bytes.
	Decode collector.DecodeStats
}

// Run drives the stream through a monitor. chaos may be nil for the
// fault-free baseline; the monitor configuration (ladder, containment) is
// identical either way, so the only difference between a baseline and a
// chaos run is the adversary itself.
func (s *Stream) Run(chaos *Chaos) *Result {
	cfg := s.cfg
	reg := obs.New()

	// Ladder rungs from the fault-free geometry: no clean window may
	// degrade, and the blast-radius duplication must push past Soft.
	clean := FlushCounts(s.Records, cfg)
	soft := 0
	for w, n := range clean {
		if (w < s.MidStart || w >= s.MidEnd) && n > soft {
			soft = n
		}
	}
	ladder := resilience.LadderConfig{
		SoftRecords: soft + soft/10,
		HardRecords: 5 * soft,
		MaxRecords:  10 * soft,
	}

	records := s.Records
	var chaosHook func(string)
	if chaos != nil {
		records = s.corruptRecords(chaos)
	}

	mcfg := online.Config{
		Window:   cfg.Window,
		Overlap:  cfg.Overlap,
		MinScore: 5,
		// Corrupt timestamps that survive decode resync may point a little
		// into the future; a tight plausibility bound caps how far any one
		// of them can drag the watermark (and hence how many genuine
		// post-corruption windows can be mistaken for late). The
		// comparison margin in CompareOutside must cover this many
		// windows.
		MaxLookahead: 8 * cfg.Window,
		// A 500us window holds only ~75 packets; the default 99th
		// percentile would select a single victim. 90 gives each interrupt
		// episode enough victims to clear MinScore.
		Diagnosis: core.Config{VictimPercentile: 90, Workers: cfg.Workers},
		HoldOff:   1, // suppress only identical onsets: no cross-window state to diverge
		Obs:       reg,
		Resilience: resilience.Config{
			Ladder:        ladder,
			ContainPanics: true,
		},
	}

	segments, segWindows := s.encode(records)
	if chaos != nil {
		s.corruptSegments(segments, segWindows, chaos)
		chaosHook = s.panicHook(chaos)
	}
	mcfg.ChaosHook = chaosHook
	mon := online.New(s.Meta, mcfg)

	res := &Result{Fingerprints: make(map[int]string), Registry: reg}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	sampleHeap := func() {
		metrics.Read(heap)
		if h := int64(heap[0].Value.Uint64()); h > res.PeakHeap {
			res.PeakHeap = h
		}
	}
	note := func(alerts []online.Alert) {
		for _, a := range alerts {
			res.Alerts = append(res.Alerts, a)
			w := s.windowIndex(a.WindowEnd) - 1 // WindowEnd is exclusive: end of window w is (w+1)*Window
			res.Fingerprints[w] += a.String() + "\n"
			if len(res.Alerts)%16 == 0 {
				sampleHeap()
			}
		}
	}
	for _, seg := range segments {
		recs, st, err := collector.DecodeStream(seg)
		res.Decode.Records += st.Records
		res.Decode.Skipped += st.Skipped
		res.Decode.Resyncs += st.Resyncs
		res.Decode.Resorted += st.Resorted
		res.Decode.BytesSkipped += st.BytesSkipped
		if err != nil {
			// No usable header: the whole segment is gone, and the
			// stream goes on with the next one.
			res.Decode.Skipped++
			res.Decode.BytesSkipped += len(seg)
			continue
		}
		note(mon.Feed(recs))
	}
	note(mon.Flush())
	sampleHeap()
	res.Stats = mon.Stats()
	res.LastDegradation = mon.LastDegradation()
	return res
}

// corruptRecords applies the record-level adversary to the blast radius
// only, leaving records outside it untouched.
func (s *Stream) corruptRecords(chaos *Chaos) []collector.BatchRecord {
	if !chaos.RecordFaults.Enabled() && len(chaos.Overload) == 0 {
		return s.Records
	}
	from, to := s.midSpan()
	lo := sort.Search(len(s.Records), func(i int) bool { return s.Records[i].At >= from })
	hi := sort.Search(len(s.Records), func(i int) bool { return s.Records[i].At >= to })
	midRecs := s.Records[lo:hi]
	if chaos.RecordFaults.Enabled() {
		mid := &collector.Trace{Meta: s.Meta, Records: midRecs}
		corrupted, _ := faults.Inject(mid, chaos.RecordFaults)
		midRecs = corrupted.Records
	}
	if len(chaos.Overload) > 0 {
		amped := make([]collector.BatchRecord, 0, 2*len(midRecs))
		for _, r := range midRecs {
			amp := 1
			if w := s.windowIndex(r.At); w >= s.MidStart && w < s.MidEnd {
				amp = chaos.Overload[(w-s.MidStart)%len(chaos.Overload)]
			}
			for k := 0; k < amp; k++ {
				amped = append(amped, r)
			}
		}
		midRecs = amped
	}
	out := make([]collector.BatchRecord, 0, len(s.Records)+len(midRecs)-(hi-lo))
	out = append(out, s.Records[:lo]...)
	out = append(out, midRecs...)
	out = append(out, s.Records[hi:]...)
	return out
}

// encode splits records into transport segments and notes each segment's
// window span [first, last].
func (s *Stream) encode(records []collector.BatchRecord) (segs [][]byte, segWindows [][2]int) {
	for i := 0; i < len(records); i += s.cfg.SegRecords {
		end := i + s.cfg.SegRecords
		if end > len(records) {
			end = len(records)
		}
		enc := collector.NewEncoder()
		for j := i; j < end; j++ {
			enc.Append(&records[j])
		}
		segs = append(segs, enc.Bytes())
		segWindows = append(segWindows, [2]int{
			s.windowIndex(records[i].At), s.windowIndex(records[end-1].At),
		})
	}
	return segs, segWindows
}

// inBlast reports whether segment i lies wholly inside the blast radius.
func (s *Stream) inBlast(segWindows [][2]int, i int) bool {
	return segWindows[i][0] >= s.MidStart && segWindows[i][1] < s.MidEnd
}

// corruptSegments applies byte-level damage to in-blast segments.
func (s *Stream) corruptSegments(segs [][]byte, segWindows [][2]int, chaos *Chaos) {
	badMagicDone := false
	nth := 0
	for i := range segs {
		if !s.inBlast(segWindows, i) {
			continue
		}
		nth++
		if chaos.BadMagicSegment && !badMagicDone {
			segs[i][0] ^= 0xFF
			badMagicDone = true
			continue
		}
		if chaos.CorruptSegments.FlipRate > 0 && nth%3 == 0 {
			c := chaos.CorruptSegments
			c.Seed += int64(i)
			segs[i] = faults.InjectStream(segs[i], c)
		}
	}
}

// panicHook builds the panic injector: keyed purely on window and victim
// indices, so injection is identical for every worker count and run.
func (s *Stream) panicHook(chaos *Chaos) func(string) {
	curWindow := -1
	return func(scope string) {
		switch {
		case strings.HasPrefix(scope, "window:"):
			curWindow, _ = strconv.Atoi(scope[len("window:"):])
		case scope == "stage:victims":
			if chaos.QuarantineWindows > 0 && s.inBlastWindow(curWindow) &&
				curWindow%chaos.QuarantineWindows == 0 {
				panic(fmt.Sprintf("chaos: injected stage panic in window %d", curWindow))
			}
		case strings.HasPrefix(scope, "victim:"):
			if chaos.VictimPanicWindows == 0 || !s.inBlastWindow(curWindow) ||
				curWindow%chaos.VictimPanicWindows != 0 {
				return
			}
			if v, _ := strconv.Atoi(scope[len("victim:"):]); v == 0 || v == 3 {
				panic(fmt.Sprintf("chaos: injected victim panic (window %d, victim %d)", curWindow, v))
			}
		}
	}
}

// inBlastWindow reports whether window w is inside the blast radius.
func (s *Stream) inBlastWindow(w int) bool {
	return w >= s.MidStart && w < s.MidEnd
}

// CompareOutside diffs two runs' alert fingerprints for every window
// outside the blast radius plus margin windows on each side, returning a
// description of each mismatch.
func CompareOutside(s *Stream, a, b *Result, margin int) []string {
	var diffs []string
	lo, hi := s.MidStart-margin, s.MidEnd+margin
	for w := 0; w < s.cfg.Windows+2; w++ {
		if w >= lo && w < hi {
			continue
		}
		if a.Fingerprints[w] != b.Fingerprints[w] {
			diffs = append(diffs, fmt.Sprintf("window %d:\n  a: %q\n  b: %q",
				w, a.Fingerprints[w], b.Fingerprints[w]))
		}
	}
	return diffs
}

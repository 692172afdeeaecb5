package tracestore

import (
	"fmt"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// unmatchedTally sums one reconstruction's dequeue accounting over several
// windows: dequeues left unmatched, dequeues in all, the summed per-window
// UnmatchedFrac, and the windows in all and Degraded.
type unmatchedTally struct {
	unmatched, dequeues int
	fracSum             float64
	windows, degraded   int
}

func (u *unmatchedTally) add(h Health) {
	u.windows++
	r := h.Recon
	u.unmatched += r.Unmatched
	u.dequeues += r.Matched + r.Reordered + r.LookaheadFix + r.Unmatched
	u.fracSum += h.UnmatchedFrac()
	if h.Degraded() {
		u.degraded++
	}
}

func (u unmatchedTally) String() string {
	return fmt.Sprintf("%d of %d unmatched, mean frac %.4f, %d degraded", u.unmatched, u.dequeues, u.fracSum/float64(u.windows), u.degraded)
}

// TestSealBoundaryUnmatched pins what the seal boundary costs today: a
// journey ends where its segment does, so every dequeue whose enqueue was
// sealed into an earlier segment is unmatched in a streaming window, where
// a cold reconstruction of the same window's records matches all but the
// dequeues whose enqueue precedes the window, and one of the whole trace
// matches all of them. Setup: the 16-NF topology at 1.2 Mpps, an 800 µs
// NAT interrupt at 3 ms, the 0.25 ms slide over a 5 ms span of the
// fine-paced serving workload, and the 25 windows ending at 6–12 ms. The
// simulator's ground truth (packet.Hops) is the third reference: it
// predicts both losses by counting each dequeue whose enqueue lies in
// another segment, or before the window.
func TestSealBoundaryUnmatched(t *testing.T) {
	const (
		slide   = 250 * simtime.Microsecond
		overlap = 4750 * simtime.Microsecond
		dur     = 12 * simtime.Millisecond
	)
	col := collector.New(collector.Config{})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: 1})
	mix := traffic.NewMix(traffic.MixConfig{Seed: 2})
	topo.Sim.LoadSchedule(traffic.Generate(mix, traffic.ScheduleConfig{Rate: simtime.MPPS(1.2), Duration: dur, Seed: 3}))
	topo.Sim.InjectInterrupt(topo.NATs[0], simtime.Time(3*simtime.Millisecond), 800*simtime.Microsecond, "boundary")
	topo.Sim.Run(simtime.Time(dur + 2*simtime.Millisecond))
	tr := col.Trace(collector.MetaOf(topo.Sim))

	s, err := NewStream(tr.Meta, StreamConfig{Window: slide, Overlap: overlap})
	if err != nil {
		t.Fatal(err)
	}
	var stream, cold unmatchedTally
	var truthStream, truthCold int
	from := 0
	for end := simtime.Time(slide); end <= simtime.Time(dur); end += simtime.Time(slide) {
		to := from
		for to < len(tr.Records) && tr.Records[to].At <= end {
			to++
		}
		s.Advance(end, tr.Records[from:to])
		from = to
		win, _ := s.Window(end)
		if end < simtime.Time(6*simtime.Millisecond) {
			continue
		}
		stream.add(win.Health())
		start := end - simtime.Time(slide+overlap)
		var recs []collector.BatchRecord
		for _, r := range tr.Records {
			if r.At >= start && r.At <= end {
				recs = append(recs, r)
			}
		}
		cold.add(Build(&collector.Trace{Meta: tr.Meta, Records: recs}).Health())
		truthStream += truthCut(s, topo.Sim.Packets(), start, end, true)
		truthCold += truthCut(s, topo.Sim.Packets(), start, end, false)
	}
	var whole unmatchedTally
	whole.add(Build(tr).Health())

	for _, c := range []struct {
		name      string
		got, want string
	}{
		{"streaming windows", stream.String(), "12090 of 486713 unmatched, mean frac 0.0248, 14 degraded"},
		{"cold windows", cold.String(), "1171 of 486713 unmatched, mean frac 0.0024, 0 degraded"},
		{"whole trace", fmt.Sprintf("%d of %d unmatched, %d degraded", whole.unmatched, whole.dequeues, whole.degraded), "0 of 46436 unmatched, 0 degraded"},
		{"streaming windows", fmt.Sprint(stream.windows), "25"},
		{"ground truth, streaming", fmt.Sprint(truthStream), "12090"},
		{"ground truth, cold", fmt.Sprint(truthCold), "1171"},
	} {
		if c.got != c.want {
			t.Errorf("%s: %s, want %s", c.name, c.got, c.want)
		}
	}
}

// truthCut counts, from the simulator's ground truth, the dequeues in the
// window [start, end] whose enqueue a reconstruction of it cannot see: one
// before start, or with segmented set, one in another grid segment.
func truthCut(s *Stream, pkts []*packet.Packet, start, end simtime.Time, segmented bool) int {
	n := 0
	for _, p := range pkts {
		for _, h := range p.Hops {
			if h.DequeueAt < start || h.DequeueAt > end || h.DequeueAt < h.EnqueueAt {
				continue
			}
			if h.EnqueueAt < start {
				n++
				continue
			}
			if segmented {
				elo, _, epoint := s.segOf(h.EnqueueAt)
				dlo, _, dpoint := s.segOf(h.DequeueAt)
				if elo != dlo || epoint != dpoint {
					n++
				}
			}
		}
	}
	return n
}

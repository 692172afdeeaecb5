package nfsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// evalSchedule is 1.2 Mpps of background traffic for dur, plus one
// 1500-packet line-rate burst 40% of the way in, enough to overflow a ring.
func evalSchedule(dur simtime.Duration) *traffic.Schedule {
	mix := traffic.NewMix(traffic.MixConfig{Flows: 1024, Seed: 41})
	sched := traffic.Generate(mix, traffic.ScheduleConfig{
		Rate:     simtime.MPPS(1.2),
		Duration: dur,
		Seed:     42,
	})
	sched.InjectBurst(traffic.BurstSpec{
		ID:    1,
		At:    simtime.Time(dur * 2 / 5),
		Flow:  packet.FiveTuple{SrcIP: packet.IPFromOctets(10, 9, 9, 9), DstIP: packet.IPFromOctets(192, 0, 2, 1), SrcPort: 4242, DstPort: 80, Proto: packet.ProtoTCP},
		Count: 1500,
	})
	return sched
}

// runEval replays sched on the 16-NF evaluation topology with a 300 µs
// interrupt on fw2 a quarter of the way in, drains the graph, and returns
// the simulator and the collected trace.
func runEval(sched *traffic.Schedule, dur simtime.Duration) (*nfsim.Sim, *collector.Trace) {
	col := collector.New(collector.Config{})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: 43})
	topo.Sim.InjectInterrupt("fw2", simtime.Time(dur/4), 300*simtime.Microsecond, "output-test")
	topo.Sim.LoadSchedule(sched)
	topo.Sim.Run(simtime.Time(dur + 5*simtime.Millisecond))
	return topo.Sim, col.Trace(collector.MetaOf(topo.Sim))
}

// TestOutputDigest pins the simulator's output: the MST2 bytes of the
// collected records and the ground truth of every packet and injected
// problem. Any change to event order, packet identity, hop timing or what
// the collector keeps moves a digest. A change that only makes the
// simulator cheaper must pass them unedited; re-record them only for a
// deliberate change to what it simulates.
func TestOutputDigest(t *testing.T) {
	const (
		wantTrace = "2c5eead89023ec67c60e48aeed1e2c7e9869356e15722aa0d604136fb836f7f2"
		wantTruth = "c3eaf507823b07302226394ccf764b9a6f6b5bd7b95346e41c0b0f503175ea77"
	)
	dur := 20 * simtime.Millisecond
	sim, tr := runEval(evalSchedule(dur), dur)
	if len(tr.Records) == 0 || len(sim.Packets()) == 0 {
		t.Fatal("empty run")
	}

	enc := collector.NewEncoder()
	for i := range tr.Records {
		enc.Append(&tr.Records[i])
	}
	gotTrace := sha256.Sum256(enc.Bytes())

	h := sha256.New()
	dropped := 0
	for _, p := range sim.Packets() {
		if p.Dropped != "" {
			dropped++
		}
		putInts(h, int64(p.ID), int64(p.IPID), int64(p.Burst), int64(len(p.Hops)))
		putString(h, p.Dropped)
		for _, hop := range p.Hops {
			putString(h, hop.Node)
			putInts(h, int64(hop.EnqueueAt), int64(hop.DequeueAt), int64(hop.DepartAt))
		}
	}
	truth := sim.Truth()
	putInts(h, int64(len(truth.Interrupts)), int64(len(truth.Bugs)), int64(len(truth.Bursts)))
	for _, in := range truth.Interrupts {
		putString(h, in.NF)
		putString(h, in.Label)
		putInts(h, int64(in.At), int64(in.Dur))
	}
	for _, b := range truth.Bugs {
		putString(h, b.NF)
		putString(h, b.Label)
	}
	for _, b := range truth.Bursts {
		f := b.Flow
		putInts(h, int64(b.ID), int64(b.At), int64(b.Count),
			int64(f.SrcIP), int64(f.DstIP), int64(f.SrcPort), int64(f.DstPort), int64(f.Proto))
	}

	if dropped == 0 {
		t.Error("no packet dropped: the burst no longer overflows a ring")
	}
	if got := hex.EncodeToString(gotTrace[:]); got != wantTrace {
		t.Errorf("trace digest (%d records) = %s, want %s", len(tr.Records), got, wantTrace)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantTruth {
		t.Errorf("ground-truth digest (%d packets) = %s, want %s", len(sim.Packets()), got, wantTruth)
	}
}

func putInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func putString(h hash.Hash, s string) {
	putInts(h, int64(len(s)))
	h.Write([]byte(s))
}

// TestEvalRunAllocBudget holds a whole simulated run to a fixed number of
// allocations: packets, their first hops and the collector's records are
// cut from chunks, the event heap is typed, and replay reuses one
// callback, so the count is set by the topology and the chunk counts. One
// allocation per packet or per record (there are tens of thousands) blows
// the budget.
func TestEvalRunAllocBudget(t *testing.T) {
	// A run measures about 590 allocations; 1000 leaves room for the
	// runtime and the topology to drift. One allocation per record or per
	// replayed instant would add thousands.
	const budget = 1000
	dur := 5 * simtime.Millisecond
	sched := evalSchedule(dur)
	var records, packets int
	allocs := testing.AllocsPerRun(2, func() {
		sim, tr := runEval(sched, dur)
		records, packets = len(tr.Records), len(sim.Packets())
	})
	t.Logf("%.0f allocations for %d records, %d packets", allocs, records, packets)
	if records < 10*budget {
		t.Fatalf("only %d records: the run is too small for the budget to catch per-record allocation", records)
	}
	if allocs > budget {
		t.Errorf("a 5 ms eval run made %.0f allocations, budget %d", allocs, budget)
	}
}

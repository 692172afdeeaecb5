package online

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// TestSealedPayloadReleased: a record's IPID and tuple payload lives no
// longer than the window that seals it. One MST2 body's records are
// decoded onto a payload slab and fed to a monitor; once the window that
// seals them has settled, and while the segment made from them is still
// retained, nothing may reach the slab: the stream keeps what it derived
// from the records, not the records.
func TestSealedPayloadReleased(t *testing.T) {
	const w, o = simtime.Millisecond, 4 * simtime.Millisecond
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 3,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
	)
	mix := traffic.NewMix(traffic.MixConfig{Seed: 4})
	sim.LoadSchedule(traffic.Generate(mix, traffic.ScheduleConfig{Rate: simtime.MPPS(0.4), Duration: 4 * simtime.Millisecond, Seed: 5}))
	sim.Run(simtime.Time(5 * simtime.Millisecond))
	tr := col.Trace(collector.MetaOf(sim))
	first := 0
	for first < len(tr.Records) && tr.Records[first].At <= simtime.Time(w) {
		first++
	}

	m := New(tr.Meta, Config{Window: w, Overlap: o})
	slab := feedBody(t, m, tr.Records[:first])
	m.Feed(tr.Records[first:]) // on to 3 ms and beyond: the first window flushes and settles
	if st := m.stream.Stats(); st.EvictedTotal != 0 || m.stream.Stream().SealedTo() < simtime.Time(w) {
		t.Fatalf("stream sealed to %v and evicted %d segments; the test wants the body's window sealed and its segment retained",
			m.stream.Stream().SealedTo(), st.EvictedTotal)
	}
	if !collected(slab) {
		t.Fatal("the body's payload slab is still reachable after the window that sealed it settled")
	}
	runtime.KeepAlive(m) // the monitor, and all the stream retains, is live through the check
}

// feedBody encodes recs as one MST2 body, decodes it as msserve does and
// feeds the decoded records to m. It returns a flag that a finalizer on
// the payload slab the first record's IPIDs were carved from sets once
// the slab is unreachable.
func feedBody(t *testing.T, m *Monitor, recs []collector.BatchRecord) *atomic.Bool {
	t.Helper()
	enc := collector.NewEncoder()
	for i := range recs {
		enc.Append(&recs[i])
	}
	body, _, err := collector.AppendDecodeStream(nil, enc.Bytes())
	if err != nil || len(body) != len(recs) || len(body[0].IPIDs) == 0 {
		t.Fatalf("decoded %d of %d records (err %v)", len(body), len(recs), err)
	}
	// The body's first record starts a fresh chunk, so its first IPID is
	// the start of the slab's allocation, as SetFinalizer needs.
	gone := new(atomic.Bool)
	runtime.SetFinalizer(&body[0].IPIDs[0], func(*uint16) { gone.Store(true) })
	m.Feed(body)
	return gone
}

// collected runs the collector until the finalizer behind gone has run,
// or gives up after a few cycles. Finalizers run on their own goroutine
// after the cycle that finds the object unreachable, hence the wait.
func collected(gone *atomic.Bool) bool {
	for i := 0; i < 20 && !gone.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return gone.Load()
}

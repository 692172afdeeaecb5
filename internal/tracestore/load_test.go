package tracestore

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/simtime"
)

// writeTraceDir writes tr where Load and ReadTrace read it.
func writeTraceDir(t testing.TB, tr *collector.Trace) string {
	t.Helper()
	dir := t.TempDir()
	if err := collector.WriteTrace(dir, tr); err != nil {
		t.Fatal(err)
	}
	return dir
}

// loadDigests returns the digests of Load(dir) and of
// Build(ReadTrace(dir)), and Load's store.
func loadDigests(t testing.TB, dir string) (load, build string, st *Store) {
	t.Helper()
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := newStoreDump()
	d.store(st)
	load = d.sum()
	tr, err := collector.ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	d = newStoreDump()
	d.store(Build(tr))
	return load, d.sum(), st
}

// TestLoadMatchesBuild: the store Load makes from a trace directory's
// frames is the store Build makes from the same directory's decoded
// records, on TestBuildDigest's traces written to disk. The reorder and
// dup faults leave records out of time order beyond the encoder's window,
// so those two take Load's decode-and-sort path; the others hold no
// records.
func TestLoadMatchesBuild(t *testing.T) {
	for _, c := range digestTraces(t) {
		load, build, st := loadDigests(t, writeTraceDir(t, c.tr))
		if load != build {
			t.Errorf("%s: Load's store digest %s, Build(ReadTrace)'s %s", c.name, load, build)
		}
		resorted := st.Health().Integrity.Resorted > 0
		if frames := st.Trace.Records == nil; frames == resorted {
			t.Errorf("%s: %d resorts, and Load's store holds %d records", c.name, st.Health().Integrity.Resorted, len(st.Trace.Records))
		}
	}
}

// TestLoadDamagedStream: Load resynchronizes over a damaged stream exactly
// as the record decoder does. Garbage is written over the frames at a few
// places, a run of frame markers is spliced in, and the tail is cut
// mid-frame.
func TestLoadDamagedStream(t *testing.T) {
	tr := evalTrace(t, 4, simtime.MPPS(1.2), 2*simtime.Millisecond)
	dir := writeTraceDir(t, tr)
	path := filepath.Join(dir, "records.mst")
	stream, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	damaged := slices.Clone(stream[:len(stream)-7])
	for _, at := range []int{len(damaged) / 5, len(damaged) / 2, 3 * len(damaged) / 4} {
		for k := range 40 {
			damaged[at+k] = byte(rng.Intn(256))
		}
	}
	markers := []byte{0xA5, 0xA5, 0x03, 0xA5, 0x00, 0xA5}
	mid := len(damaged) / 3
	damaged = slices.Concat(damaged[:mid], markers, damaged[mid:])
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	load, build, st := loadDigests(t, dir)
	if load != build {
		t.Errorf("Load's store digest %s, Build(ReadTrace)'s %s", load, build)
	}
	if g := st.Health().Integrity; g.DecodeSkipped < 4 || g.DecodeResyncs < 4 {
		t.Errorf("damage not seen: %+v", g)
	}
}

// TestLoadOutOfOrder: a stream disordered beyond the encoder's 32-record
// reorder window reaches Load out of time order; Load decodes, sorts and
// builds it, so its store is still Build(ReadTrace)'s, resorts counted.
func TestLoadOutOfOrder(t *testing.T) {
	tr := evalTrace(t, 4, simtime.MPPS(1.2), 2*simtime.Millisecond)
	disordered := *tr
	disordered.Records = slices.Clone(tr.Records)
	recs := disordered.Records
	// Every 500th record is moved 100 places later, far past the window.
	for i := 0; i+101 < len(recs); i += 500 {
		r := recs[i]
		copy(recs[i:i+100], recs[i+1:i+101])
		recs[i+100] = r
	}
	load, build, st := loadDigests(t, writeTraceDir(t, &disordered))
	if load != build {
		t.Errorf("Load's store digest %s, Build(ReadTrace)'s %s", load, build)
	}
	if st.Health().Integrity.Resorted == 0 {
		t.Error("no resorts counted: the stream reached Load in time order")
	}
}

// TestLoadErrors: Load refuses what ReadTrace refuses, with the same
// error: a missing directory, a short records file and one with a bad
// magic.
func TestLoadErrors(t *testing.T) {
	tr := evalTrace(t, 4, simtime.MPPS(0.3), 200*simtime.Microsecond)
	dir := writeTraceDir(t, tr)
	dirs := []string{filepath.Join(dir, "missing")}
	for _, stream := range []string{"MS", "MST1\xa5"} {
		bad := writeTraceDir(t, tr)
		if err := os.WriteFile(filepath.Join(bad, "records.mst"), []byte(stream), 0o644); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, bad)
	}
	for _, d := range dirs {
		_, lerr := Load(d)
		_, rerr := collector.ReadTrace(d)
		if lerr == nil || rerr == nil || lerr.Error() != rerr.Error() {
			t.Errorf("%s: Load error %v, ReadTrace error %v", d, lerr, rerr)
		}
	}
}

// TestLoadAllocatesNoRecordArray is the allocation gate on Load's frame
// path. Per record, Load may allocate what Build allocates for the store
// of the same trace already in memory, plus the file it reads (a couple of
// bytes a packet), but not a BatchRecord: the record array ReadTrace
// decodes alone costs that much, before its IPID and tuple slabs.
func TestLoadAllocatesNoRecordArray(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped in -short mode")
	}
	tr := evalTrace(t, 4, simtime.MPPS(1.2), 4*simtime.Millisecond)
	dir := writeTraceDir(t, tr)
	bytesOf := func(f func()) uint64 {
		f() // warm: package-level tables, the decoder's first use
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	load := bytesOf(func() {
		if _, err := Load(dir); err != nil {
			t.Fatal(err)
		}
	})
	build := bytesOf(func() { Build(tr) })
	n := uint64(len(tr.Records))
	perRec := (float64(load) - float64(build)) / float64(n)
	t.Logf("%d records: Load allocates %d B, Build of the records in memory %d B: %+.1f B a record", n, load, build, perRec)
	if limit := float64(unsafe.Sizeof(collector.BatchRecord{})); perRec >= limit {
		t.Errorf("Load allocates %.1f B a record more than Build of the same records, limit %.0f (one BatchRecord)", perRec, limit)
	}
}

// FuzzLoad drives Load's frame path with adversarial record streams under
// a fixed chain's meta: whatever the bytes, the store made from the frames
// is the store Build makes from their decoded records, and the two agree
// on whether the stream has a header at all.
func FuzzLoad(f *testing.F) {
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 17,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.6)},
	)
	sim.LoadSchedule(cbr(simtime.MPPS(0.8), 40*simtime.Microsecond, 5))
	sim.Run(simtime.Time(200 * simtime.Microsecond))
	tr := col.Trace(collector.MetaOf(sim))
	enc := collector.NewEncoder()
	for i := range tr.Records {
		enc.Append(&tr.Records[i])
	}
	valid := enc.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("MST2"))
	f.Add([]byte("MST1"))
	garbled := slices.Clone(valid)
	for i := 6; i < len(garbled); i += 37 {
		garbled[i] ^= 0x5A
	}
	f.Add(garbled)
	// The records in reverse: out of time order beyond the encoder's
	// window once there are more than 32.
	rev := collector.NewEncoder()
	for i := len(tr.Records) - 1; i >= 0; i-- {
		rev.Append(&tr.Records[i])
	}
	f.Add(rev.Bytes())

	f.Fuzz(func(t *testing.T, stream []byte) {
		file := &collector.TraceFile{Meta: tr.Meta, Stream: stream}
		st, err := buildFrames(file)
		decoded, derr := file.Decode()
		if (err == nil) != (derr == nil) {
			t.Fatalf("frame path error %v, record path error %v", err, derr)
		}
		if err != nil {
			return
		}
		load, build := newStoreDump(), newStoreDump()
		load.store(st)
		build.store(Build(decoded))
		if l, b := load.sum(), build.sum(); l != b {
			t.Fatalf("frame path store digest %s, record path %s", l, b)
		}
	})
}

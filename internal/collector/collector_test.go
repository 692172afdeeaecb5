package collector

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

func tuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.IPFromOctets(10, 0, byte(i>>8), byte(i)),
		DstIP:   packet.IPFromOctets(23, 1, 2, 3),
		SrcPort: uint16(2000 + i),
		DstPort: 80,
		Proto:   packet.ProtoTCP,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []BatchRecord{
		{Comp: "source", Queue: "nat1.in", At: 100, Dir: DirWrite, IPIDs: []uint16{1, 2, 3}},
		{Comp: "nat1", Queue: "nat1.in", At: 150, Dir: DirRead, IPIDs: []uint16{1, 2, 3}},
		{Comp: "nat1", Queue: "fw1.in", At: 200, Dir: DirWrite, IPIDs: []uint16{1, 2, 3}},
		{Comp: "fw1", Queue: "fw1.in", At: 220, Dir: DirRead, IPIDs: []uint16{1, 2}},
		{Comp: "fw1", At: 300, Dir: DirDeliver, IPIDs: []uint16{1, 2},
			Tuples: []packet.FiveTuple{tuple(1), tuple(2)}},
	}
	enc := NewEncoder()
	for i := range recs {
		enc.Append(&recs[i])
	}
	got, st, err := DecodeStream(enc.Bytes())
	if err != nil || st.Damaged() {
		t.Fatalf("DecodeStream: %v, %+v", err, st)
	}
	if len(got) != len(recs) {
		t.Fatalf("record count: got %d", len(got))
	}
	for i := range recs {
		a, b := recs[i], got[i]
		if a.Comp != b.Comp || a.Dir != b.Dir || a.At != b.At {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, a, b)
		}
		if a.Dir != DirDeliver && a.Queue != b.Queue {
			t.Fatalf("record %d queue: %q vs %q", i, a.Queue, b.Queue)
		}
		if len(a.IPIDs) != len(b.IPIDs) {
			t.Fatalf("record %d size", i)
		}
		for j := range a.IPIDs {
			if a.IPIDs[j] != b.IPIDs[j] {
				t.Fatalf("record %d ipid %d", i, j)
			}
		}
		for j := range a.Tuples {
			if a.Tuples[j] != b.Tuples[j] {
				t.Fatalf("record %d tuple %d", i, j)
			}
		}
	}
}

// TestEncodeToleratesTimeRegression is the regression test for the old
// out-of-order panic: Append used to panic on a timestamp earlier than its
// predecessor; the bounded reorder buffer must absorb it, so the stream
// decodes in time order with nothing left for the decoder to re-sort.
func TestEncodeToleratesTimeRegression(t *testing.T) {
	enc := NewEncoder()
	enc.Append(&BatchRecord{Comp: "a", At: 100, Dir: DirRead, IPIDs: []uint16{1}})
	enc.Append(&BatchRecord{Comp: "a", At: 50, Dir: DirRead, IPIDs: []uint16{2}}) // panicked before
	enc.Append(&BatchRecord{Comp: "a", At: 150, Dir: DirRead, IPIDs: []uint16{3}})
	got, st, err := DecodeStream(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("record count: got %d", len(got))
	}
	for i, want := range []simtime.Time{50, 100, 150} {
		if got[i].At != want {
			t.Errorf("record %d at %v, want %v", i, got[i].At, want)
		}
	}
	if st.Resorted != 0 {
		t.Errorf("reorder window left inversions for the decoder: %+v", st)
	}
}

// TestEncodeBeyondReorderWindow: a record later than the window can absorb
// is emitted out of stream order and still decodes into a time-sorted
// stream, counted by the decoder.
func TestEncodeBeyondReorderWindow(t *testing.T) {
	enc := NewEncoder()
	for i := 1; i <= reorderWindow+2; i++ {
		enc.Append(&BatchRecord{Comp: "a", At: simtime.Time(100 * i), Dir: DirRead, IPIDs: []uint16{1}})
	}
	// 100 and 200 are already encoded; 10 is far too late.
	enc.Append(&BatchRecord{Comp: "a", At: 10, Dir: DirRead, IPIDs: []uint16{9}})
	got, st, err := DecodeStream(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != reorderWindow+3 {
		t.Fatalf("record count: got %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatalf("decoded stream out of order at %d", i)
		}
	}
	if got[0].At != 10 || got[0].IPIDs[0] != 9 {
		t.Errorf("late record not resorted to front: %+v", got[0])
	}
	if st.Resorted != 1 {
		t.Errorf("decoder resort count: %+v, want 1", st)
	}
}

// TestDecodeStreamResyncs: corrupting bytes mid-stream must cost only the
// damaged records; everything before and after decodes, with accurate
// accounting.
func TestDecodeStreamResyncs(t *testing.T) {
	enc := NewEncoder()
	ts := simtime.Time(0)
	const total = 40
	for i := 0; i < total; i++ {
		ts = ts.Add(100)
		enc.Append(&BatchRecord{Comp: "fw1", Queue: "fw1.in", At: ts, Dir: DirRead,
			IPIDs: []uint16{uint16(i), uint16(i + 1), uint16(i + 2)}})
	}
	valid := enc.Bytes()
	// Stomp a byte range in the middle of the stream.
	mutated := append([]byte(nil), valid...)
	mid := len(mutated) / 2
	for i := mid; i < mid+10 && i < len(mutated); i++ {
		mutated[i] = 0xFF
	}
	got, st, err := DecodeStream(mutated)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped == 0 || st.Resyncs == 0 {
		t.Fatalf("no damage recorded: %+v", st)
	}
	if len(got) < total-6 {
		t.Fatalf("lost too much: %d of %d records (%+v)", len(got), total, st)
	}
	if len(got)+st.Skipped < total-2 {
		t.Errorf("accounting inconsistent: %d decoded + %d skipped (%+v)", len(got), st.Skipped, st)
	}
}

// TestDecodeStreamTruncated: a stream cut mid-record returns every record
// before the cut.
func TestDecodeStreamTruncated(t *testing.T) {
	enc := NewEncoder()
	ts := simtime.Time(0)
	for i := 0; i < 10; i++ {
		ts = ts.Add(100)
		enc.Append(&BatchRecord{Comp: "a", At: ts, Dir: DirRead, IPIDs: []uint16{uint16(i)}})
	}
	valid := enc.Bytes()
	got, st, err := DecodeStream(valid[:len(valid)-3])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 || st.Skipped != 1 {
		t.Fatalf("truncated decode: %d records, %+v", len(got), st)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// MST1, the unframed delta-timestamp layout before MST2, is no longer
	// read: its header is a bad magic like any other.
	for _, in := range []string{"nope", "MST1\x00\x01a\x00\x64\x01\x07\x00"} {
		if _, _, err := DecodeStream([]byte(in)); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("DecodeStream(%q) err = %v, want bad magic", in, err)
		}
	}
	enc := NewEncoder()
	enc.Append(&BatchRecord{Comp: "a", At: 1, Dir: DirRead, IPIDs: []uint16{1, 2}})
	b := enc.Bytes()
	if _, st, err := DecodeStream(b[:len(b)-1]); err == nil && !st.Damaged() {
		t.Error("truncated stream accepted")
	}
}

// TestEncodeRoundTripProperty: some generated records step back in time, a
// few positions or past the reorder window; whether the encoder or the
// decoder restores their order, the decoded records must be the stable
// time sort of the input.
func TestEncodeRoundTripProperty(t *testing.T) {
	f := func(batches []uint8) bool {
		enc := NewEncoder()
		var want []BatchRecord
		ts := simtime.Time(0)
		for i, bn := range batches {
			n := int(bn%32) + 1
			ipids := make([]uint16, n)
			for j := range ipids {
				ipids[j] = uint16(i*37 + j)
			}
			ts = ts.Add(simtime.Duration(bn) + 1)
			at := ts
			if bn%7 == 0 {
				// Step back by up to 16 µs: from a few predecessors to
				// well past the reorder window.
				at = max(0, ts-simtime.Time(int(bn)*int(bn)/4))
			}
			r := BatchRecord{
				Comp:  []string{"nat1", "fw1", "source"}[i%3],
				Queue: []string{"x.in", "y.in"}[i%2],
				At:    at,
				Dir:   Dir(i % 2), // read / write
				IPIDs: ipids,
			}
			enc.Append(&r)
			want = append(want, r)
		}
		got, st, err := DecodeStream(enc.Bytes())
		if err != nil || st.Damaged() {
			return false
		}
		slices.SortStableFunc(want, func(a, b BatchRecord) int { return cmp.Compare(a.At, b.At) })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Comp != want[i].Comp || got[i].At != want[i].At || got[i].Dir != want[i].Dir ||
				!slices.Equal(got[i].IPIDs, want[i].IPIDs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBytesPerPacketNearTwo(t *testing.T) {
	// Full batches of 32 should amortize metadata to ~2.2 B/packet.
	enc := NewEncoder()
	rng := rand.New(rand.NewSource(1))
	var pkts int
	ts := simtime.Time(0)
	for i := 0; i < 1000; i++ {
		ipids := make([]uint16, 32)
		for j := range ipids {
			ipids[j] = uint16(rng.Intn(65536))
		}
		ts = ts.Add(simtime.Duration(20 * simtime.Microsecond))
		enc.Append(&BatchRecord{Comp: "fw1", Queue: "fw1.in", At: ts, Dir: DirRead, IPIDs: ipids})
		pkts += 32
	}
	perPacket := float64(len(enc.Bytes())) / float64(pkts)
	if perPacket > 2.5 {
		t.Errorf("bytes/packet: got %.2f, want <= 2.5", perPacket)
	}
}

func TestCollectorOnChain(t *testing.T) {
	col := New(Config{})
	sim := nfsim.BuildChain(col, 11,
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.9)},
	)
	iv := simtime.MPPS(0.4).Interval()
	var ems []traffic.Emission
	for i := 0; i < 400; i++ {
		ems = append(ems, traffic.Emission{
			At: simtime.Time(simtime.Duration(i) * iv), Flow: tuple(i % 7), Size: 64, Burst: -1,
		})
	}
	sim.LoadSchedule(&traffic.Schedule{Emissions: ems})
	sim.Run(simtime.Time(20 * simtime.Millisecond))

	tr := col.Trace(MetaOf(sim))

	// Each packet should appear once in: source write, fw1 read, fw1
	// write, vpn1 read, vpn1 deliver.
	if got := tr.Packets(DirDeliver); got != 400 {
		t.Errorf("delivered entries: got %d", got)
	}
	if got := tr.Packets(DirRead); got != 800 { // fw1 + vpn1
		t.Errorf("read entries: got %d", got)
	}
	if got := tr.Packets(DirWrite); got != 800 { // source + fw1
		t.Errorf("write entries: got %d", got)
	}
	// Deliver records carry tuples; others don't.
	for _, r := range tr.Records {
		if r.Dir == DirDeliver && len(r.Tuples) != len(r.IPIDs) {
			t.Fatal("deliver without tuples")
		}
		if r.Dir != DirDeliver && r.Tuples != nil {
			t.Fatal("non-deliver with tuples")
		}
	}
	// Stats should match.
	st := col.Stats()
	if st.PacketsSeen != 400*5 {
		t.Errorf("packets seen: got %d", st.PacketsSeen)
	}
	if st.BytesPerPacket() <= 0 || st.BytesPerPacket() > 20 {
		t.Errorf("bytes/packet out of range: %v", st.BytesPerPacket())
	}
	// Meta sanity.
	if tr.Meta.Component("fw1") == nil || !tr.Meta.Component("vpn1").Egress {
		t.Error("meta wrong")
	}
	if ups := tr.Meta.Upstreams("vpn1"); len(ups) != 1 || ups[0] != "fw1" {
		t.Errorf("upstreams: %v", ups)
	}
	if downs := tr.Meta.Downstreams("source"); len(downs) != 1 || downs[0] != "fw1" {
		t.Errorf("downstreams: %v", downs)
	}
}

func TestRecordsOf(t *testing.T) {
	tr := &Trace{Records: []BatchRecord{
		{Comp: "a", At: 1}, {Comp: "b", At: 2}, {Comp: "a", At: 3},
	}}
	recs := tr.RecordsOf("a")
	if len(recs) != 2 || recs[0].At != 1 || recs[1].At != 3 {
		t.Errorf("RecordsOf: %+v", recs)
	}
}

func TestDirString(t *testing.T) {
	if DirRead.String() != "read" || DirWrite.String() != "write" || DirDeliver.String() != "deliver" {
		t.Error("Dir.String wrong")
	}
	if Dir(9).String() != "dir(9)" {
		t.Error("unknown dir string wrong")
	}
}

// TestDecodeNeverPanics fuzzes the decoder with mutated valid streams: any
// byte corruption must produce an error or a short result, never a panic.
func TestDecodeNeverPanics(t *testing.T) {
	enc := NewEncoder()
	ts := simtime.Time(0)
	for i := 0; i < 50; i++ {
		ts = ts.Add(100)
		ipids := []uint16{uint16(i), uint16(i * 3)}
		rec := BatchRecord{Comp: "fw1", Queue: "fw1.in", At: ts, Dir: Dir(i % 3), IPIDs: ipids}
		if rec.Dir == DirDeliver {
			rec.Tuples = []packet.FiveTuple{tuple(i), tuple(i + 1)}
		}
		enc.Append(&rec)
	}
	valid := enc.Bytes()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		mutated := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(3) == 0 {
			mutated = mutated[:rng.Intn(len(mutated))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked on mutation: %v", r)
				}
			}()
			_, _, _ = DecodeStream(mutated)
		}()
	}
}

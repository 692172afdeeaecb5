package collector

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// fuzzSeedStream builds a small valid MST2 stream covering every record
// shape (reads, writes, delivers with tuples, table definitions).
func fuzzSeedStream() []byte {
	enc := NewEncoder()
	ts := simtime.Time(0)
	for i := 0; i < 8; i++ {
		ts = ts.Add(simtime.Duration(100 + i))
		rec := BatchRecord{
			Comp:  []string{"nat1", "fw1"}[i%2],
			Queue: "fw1.in",
			At:    ts,
			Dir:   Dir(i % 3),
			IPIDs: []uint16{uint16(i), uint16(i * 257)},
		}
		if rec.Dir == DirDeliver {
			rec.Tuples = []packet.FiveTuple{
				{SrcIP: 0x0a000001, DstIP: 0x17000001, SrcPort: 1024, DstPort: 80, Proto: packet.ProtoTCP},
				{SrcIP: 0x0a000002, DstIP: 0x17000002, SrcPort: 1025, DstPort: 443, Proto: packet.ProtoUDP},
			}
		}
		enc.Append(&rec)
	}
	return enc.Bytes()
}

// FuzzDecode drives the tolerant decoder with adversarial input: it must
// never panic, never over-allocate relative to the input size, and always
// report internally consistent stats.
func FuzzDecode(f *testing.F) {
	valid := fuzzSeedStream()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("MST2"))
	f.Add([]byte("MST1"))
	f.Add([]byte("nope"))
	// Truncations and single-bit corruptions of the valid stream.
	for _, cut := range []int{4, 5, len(valid) / 2, len(valid) - 1} {
		if cut <= len(valid) {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
	}
	for _, pos := range []int{4, 6, len(valid) / 3, len(valid) / 2, len(valid) - 2} {
		mutated := append([]byte(nil), valid...)
		mutated[pos] ^= 0x41
		f.Add(mutated)
	}
	// A stream that is all frame markers (resync stress).
	markers := append([]byte("MST2"), make([]byte, 256)...)
	for i := 4; i < len(markers); i++ {
		markers[i] = frameMarker
	}
	f.Add(markers)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, st, err := DecodeStream(data)
		if err != nil {
			if len(recs) != 0 {
				t.Fatalf("records returned alongside error: %d", len(recs))
			}
			return
		}
		if st.Records != len(recs) {
			t.Fatalf("stats.Records %d != %d decoded", st.Records, len(recs))
		}
		if st.Skipped < 0 || st.Resyncs < 0 || st.BytesSkipped < 0 || st.BytesSkipped > len(data) {
			t.Fatalf("implausible stats: %+v", st)
		}
		// Over-allocation guard: every decoded packet entry was parsed
		// from at least two input bytes, so entries can never exceed
		// half the input.
		entries := 0
		for i := range recs {
			entries += len(recs[i].IPIDs)
			if recs[i].Dir > DirDeliver {
				t.Fatalf("record %d has invalid direction %d", i, recs[i].Dir)
			}
			if recs[i].Dir == DirDeliver && len(recs[i].Tuples) != len(recs[i].IPIDs) {
				t.Fatalf("record %d deliver tuple count mismatch", i)
			}
		}
		if entries > len(data)/2 {
			t.Fatalf("over-allocation: %d entries from %d bytes", entries, len(data))
		}
		// Output must be time-ordered (the decoder resorts).
		for i := 1; i < len(recs); i++ {
			if recs[i].At < recs[i-1].At {
				t.Fatalf("decoded stream out of order at %d", i)
			}
		}
		// Decoding must be deterministic.
		recs2, st2, err2 := DecodeStream(data)
		if err2 != nil || len(recs2) != len(recs) || st2 != st {
			t.Fatalf("nondeterministic decode: %+v vs %+v", st, st2)
		}
		// Decoding into storage that still holds earlier records, after a
		// kept prefix, appends exactly the fresh decode and leaves the
		// prefix alone.
		stale, keep := staleRecords(), len(data)%3
		prefix := slices.Clone(stale[:keep])
		got, st3, err3 := AppendDecodeStream(stale[:keep], data)
		if err3 != nil || st3 != st || !reflect.DeepEqual(got[:keep], prefix) || !reflect.DeepEqual(got[keep:], recs) {
			t.Fatalf("decode into reused storage differs from a fresh decode: %+v vs %+v, %v", st3, st, err3)
		}
	})
}

// staleRecords returns decoded records with spare capacity behind them, as
// a destination a previous body was decoded into looks.
func staleRecords() []BatchRecord {
	recs, _, err := AppendDecodeStream(make([]BatchRecord, 0, 64), fuzzSeedStream())
	if err != nil {
		panic(err)
	}
	return recs[:cap(recs)]
}

// FuzzParseMeta drives the trace-metadata boundary (meta.json decode plus
// Check) with adversarial documents: it must never panic, and a meta it
// accepts must marshal to a document it accepts again, describing the
// same deployment and marshalling to the same bytes.
func FuzzParseMeta(f *testing.F) {
	sim := nfsim.BuildChain(nil, 1,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
	)
	valid, err := json.MarshalIndent(MetaOf(sim), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"components":[{"name":"a"},{"name":"a"}]}`))
	f.Add([]byte(`{"components":[{"name":"a"}],"edges":[{"from":"a","to":"ghost"}]}`))
	f.Add([]byte(`{"components":[{"name":"a","peak_rate":-1}],"max_batch":-3,"edges":[]}`))
	f.Add([]byte(`{"components":[{"name":"a","peak_pps":1}]}`))
	f.Add([]byte(`{"components":[{"name":"a"}]} {}`))
	f.Add([]byte(`{"components":[]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseMeta(data)
		if err != nil {
			return
		}
		b, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("accepted meta does not marshal: %v", err)
		}
		back, err := parseMeta(b)
		if err != nil {
			t.Fatalf("accepted meta %+v marshals to a rejected document %s: %v", m, b, err)
		}
		if !slices.Equal(back.Components, m.Components) || !slices.Equal(back.Edges, m.Edges) || back.MaxBatch != m.MaxBatch {
			t.Fatalf("round trip changed the meta:\n%+v\n%+v", m, back)
		}
		if b2, _ := json.Marshal(&back); !bytes.Equal(b2, b) {
			t.Fatalf("marshal is not a fixed point:\n%s\n%s", b, b2)
		}
	})
}

package collector

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// slabBody encodes n records cycling through 17 components and all three
// directions, with batch sizes 1..32, as one MST2 stream: enough IPIDs and
// tuples to span several slab chunks.
func slabBody(n int) ([]BatchRecord, []byte) {
	rng := rand.New(rand.NewSource(5))
	comps := make([]string, 17)
	for i := range comps {
		comps[i] = "nf" + string(rune('a'+i))
	}
	recs := make([]BatchRecord, n)
	enc := NewEncoder()
	for i := range recs {
		r := BatchRecord{Comp: comps[i%len(comps)], At: simtime.Time(100 * (i + 1)), Dir: Dir(i % 3)}
		for k := 1 + rng.Intn(32); k > 0; k-- {
			r.IPIDs = append(r.IPIDs, uint16(rng.Intn(1<<16)))
		}
		switch r.Dir {
		case DirRead:
			r.Queue = r.Comp + ".in"
		case DirWrite:
			r.Queue = comps[(i+1)%len(comps)] + ".in"
		case DirDeliver:
			for range r.IPIDs {
				r.Tuples = append(r.Tuples, packet.FiveTuple{SrcIP: rng.Uint32(), DstIP: rng.Uint32(), SrcPort: uint16(i), DstPort: 443, Proto: 6})
			}
		}
		recs[i] = r
		enc.Append(&recs[i])
	}
	return recs, enc.Bytes()
}

func sameRecord(a, b *BatchRecord) bool {
	if a.Comp != b.Comp || a.Queue != b.Queue || a.At != b.At || a.Dir != b.Dir ||
		len(a.IPIDs) != len(b.IPIDs) || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.IPIDs {
		if a.IPIDs[i] != b.IPIDs[i] {
			return false
		}
	}
	for i := range a.Tuples {
		if a.Tuples[i] != b.Tuples[i] {
			return false
		}
	}
	return true
}

// TestDecodeStreamSlabChunks: records carved out of shared slab chunks come
// back exactly as encoded — a chunk filling up starts a new one and leaves
// the records already cut from it alone — and no record can reach a
// neighbour's payload by appending to its own.
func TestDecodeStreamSlabChunks(t *testing.T) {
	recs, body := slabBody(3000)
	ipids, tuples := 0, 0
	for i := range recs {
		ipids += len(recs[i].IPIDs)
		tuples += len(recs[i].Tuples)
	}
	if ipids < 3*ipidChunk || tuples < 3*tupleChunk {
		t.Fatalf("body too small to span chunks: %d ipids, %d tuples", ipids, tuples)
	}
	got, st, err := DecodeStream(body)
	if err != nil || st.Damaged() || len(got) != len(recs) {
		t.Fatalf("decode: %d of %d records, %+v, %v", len(got), len(recs), st, err)
	}
	for i := range recs {
		if !sameRecord(&recs[i], &got[i]) {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
		if cap(got[i].IPIDs) != len(got[i].IPIDs) || cap(got[i].Tuples) != len(got[i].Tuples) {
			t.Fatalf("record %d: payload slices carry spare capacity into the shared chunk", i)
		}
	}
}

// TestDecodeStreamAllocsPerRecord pins the slab mechanism: decoding a body
// of thousands of records allocates a small fraction of one object per
// record (the output slice, a few chunks, the table strings), not one or
// two per record.
func TestDecodeStreamAllocsPerRecord(t *testing.T) {
	recs, body := slabBody(2000)
	avg := testing.AllocsPerRun(10, func() {
		if got, _, err := DecodeStream(body); err != nil || len(got) != len(recs) {
			t.Fatalf("decode: %d records, %v", len(got), err)
		}
	})
	if per := avg / float64(len(recs)); per > 0.1 {
		t.Errorf("DecodeStream allocates %.3f objects per record (%.0f over %d records), budget 0.1", per, avg, len(recs))
	}
}

// TestAppendDecodeReusesStorage: decoding into a destination that already
// has the room allocates exactly one object less than a fresh decode — the
// record slice — and nothing else changes: the slab chunks and the string
// tables are the body's own either way.
func TestAppendDecodeReusesStorage(t *testing.T) {
	recs, body := slabBody(2000)
	dst, _, err := DecodeStream(body)
	if err != nil || len(dst) != len(recs) {
		t.Fatalf("decode: %d records, %v", len(dst), err)
	}
	fresh := testing.AllocsPerRun(10, func() {
		if _, _, err := DecodeStream(body); err != nil {
			t.Fatal(err)
		}
	})
	reused := testing.AllocsPerRun(10, func() {
		if dst, _, err = AppendDecodeStream(dst[:0], body); err != nil || len(dst) != len(recs) {
			t.Fatalf("decode into reused storage: %d records, %v", len(dst), err)
		}
	})
	if fresh-reused != 1 {
		t.Errorf("a fresh decode allocates %.0f objects, one into reused storage %.0f: want exactly the record slice saved", fresh, reused)
	}
}

// TestDecodedRecordsOutliveTheBody: a decoded record holds nothing of the
// body it came from — strings are copied out and payloads carved from the
// decoder's own slabs — so the caller may overwrite the body buffer with
// the next one as soon as the decode returns.
func TestDecodedRecordsOutliveTheBody(t *testing.T) {
	recs, body := slabBody(300)
	jsonBody, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xEE
		}
	}
	got, _, err := DecodeStream(body)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := DecodeStream(bytes.Clone(body))
	scribble(body)
	if !reflect.DeepEqual(got, want) {
		t.Error("MST2 records changed when the body they were decoded from was overwritten")
	}
	gotJSON, err := DecodeJSON(jsonBody)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := DecodeJSON(bytes.Clone(jsonBody))
	scribble(jsonBody)
	if !reflect.DeepEqual(gotJSON, wantJSON) {
		t.Error("JSON records changed when the body they were decoded from was overwritten")
	}
}

package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// refDecodeStream is the MST2 decode loop as it stood before its one-byte
// varint paths and the inversion count folded into the frame loop: every
// integer through binary.Uvarint, every record re-scanned for inversions
// after the loop, every payload slice allocated on its own. It is the
// reference TestDecodeMatchesReference holds AppendDecodeStream to.
func refDecodeStream(data []byte) ([]BatchRecord, DecodeStats, error) {
	var st DecodeStats
	if len(data) < 4 {
		return nil, st, errors.New("collector: short stream")
	}
	if [4]byte(data[:4]) != magic {
		return nil, st, errors.New("collector: bad magic")
	}
	d := &refDecoder{}
	recs := []BatchRecord{}
	pos := 4
	for pos < len(data) {
		if data[pos] != frameMarker {
			next := d.resync(data, pos)
			st.Resyncs++
			st.Skipped++
			st.BytesSkipped += next - pos
			pos = next
			continue
		}
		var rec BatchRecord
		end, ok := d.frame(data, pos, &rec, false)
		if !ok {
			next := d.resync(data, pos+1)
			st.Resyncs++
			st.Skipped++
			st.BytesSkipped += next - pos
			pos = next
			continue
		}
		recs = append(recs, rec)
		pos = end
	}
	st.Records = len(recs)
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			st.Resorted++
		}
	}
	if st.Resorted > 0 {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
	}
	return recs, st, nil
}

type refDecoder struct {
	comps, queues []string
}

func (d *refDecoder) frame(data []byte, pos int, rec *BatchRecord, dry bool) (int, bool) {
	p := pos + 1
	plen, n := binary.Uvarint(data[p:])
	if n <= 0 || plen > maxFrameBytes {
		return 0, false
	}
	p += n
	end := p + int(plen)
	if end > len(data) {
		return 0, false
	}
	compsLen, queuesLen := len(d.comps), len(d.queues)
	ok := d.payload(data[p:end], rec, dry)
	if !ok || dry {
		d.comps = d.comps[:compsLen]
		d.queues = d.queues[:queuesLen]
	}
	if !ok {
		return 0, false
	}
	return end, true
}

func refUvarint(b []byte, pos *int) (uint64, bool) {
	v, n := binary.Uvarint(b[*pos:])
	if n <= 0 {
		return 0, false
	}
	*pos += n
	return v, true
}

func refRef(b []byte, pos *int, table *[]string) (int, bool) {
	v, ok := refUvarint(b, pos)
	if !ok {
		return 0, false
	}
	id := v >> 1
	if v&1 == 0 {
		if id >= uint64(len(*table)) {
			return 0, false
		}
		return int(id), true
	}
	if id != uint64(len(*table)) {
		return 0, false
	}
	l, ok := refUvarint(b, pos)
	if !ok || l > uint64(len(b)) || *pos+int(l) > len(b) {
		return 0, false
	}
	*table = append(*table, string(b[*pos:*pos+int(l)]))
	*pos += int(l)
	return int(id), true
}

func (d *refDecoder) payload(b []byte, rec *BatchRecord, dry bool) bool {
	pos := 0
	comp, ok := refRef(b, &pos, &d.comps)
	if !ok || pos >= len(b) {
		return false
	}
	rec.Comp = d.comps[comp]
	rec.Dir = Dir(b[pos])
	pos++
	switch rec.Dir {
	case DirWrite:
		q, ok := refRef(b, &pos, &d.queues)
		if !ok {
			return false
		}
		rec.Queue = d.queues[q]
	case DirRead:
		rec.Queue = rec.Comp + ".in"
	case DirDeliver:
		rec.Queue = ""
	default:
		return false
	}
	at, ok := refUvarint(b, &pos)
	if !ok {
		return false
	}
	rec.At = simtime.Time(at)
	n, ok := refUvarint(b, &pos)
	if !ok {
		return false
	}
	need := int(n) * 2
	if rec.Dir == DirDeliver {
		need = int(n) * 15
	}
	if n > maxFrameBytes || pos+need != len(b) {
		return false
	}
	if dry {
		return true
	}
	rec.IPIDs = make([]uint16, n)
	for i := range rec.IPIDs {
		rec.IPIDs[i] = uint16(b[pos]) | uint16(b[pos+1])<<8
		pos += 2
	}
	if rec.Dir == DirDeliver {
		rec.Tuples = make([]packet.FiveTuple, n)
		for i := range rec.Tuples {
			t := b[pos : pos+13]
			rec.Tuples[i] = packet.FiveTuple{
				SrcIP:   uint32(t[0]) | uint32(t[1])<<8 | uint32(t[2])<<16 | uint32(t[3])<<24,
				DstIP:   uint32(t[4]) | uint32(t[5])<<8 | uint32(t[6])<<16 | uint32(t[7])<<24,
				SrcPort: uint16(t[8]) | uint16(t[9])<<8,
				DstPort: uint16(t[10]) | uint16(t[11])<<8,
				Proto:   t[12],
			}
			pos += 13
		}
	}
	return true
}

func (d *refDecoder) resync(data []byte, pos int) int {
	var scratch BatchRecord
	for ; pos < len(data); pos++ {
		if data[pos] != frameMarker {
			continue
		}
		if _, ok := d.frame(data, pos, &scratch, true); ok {
			return pos
		}
	}
	return len(data)
}

// decodeDiff compares AppendDecodeStream with the reference on one input
// (decoded fresh and after a kept prefix of stale records), naming the
// first difference.
func decodeDiff(data []byte) string {
	want, wst, werr := refDecodeStream(data)
	got, gst, gerr := DecodeStream(data)
	if (werr == nil) != (gerr == nil) {
		return "errors differ: " + errString(gerr) + " vs reference " + errString(werr)
	}
	if werr != nil {
		return ""
	}
	if gst != wst {
		return "stats differ"
	}
	if len(got) != len(want) {
		return "record counts differ"
	}
	for i := range want {
		if !sameRecord(&got[i], &want[i]) || (got[i].Tuples == nil) != (want[i].Tuples == nil) {
			return "record differs"
		}
	}
	stale := staleRecords()
	keep := len(data) % 5
	appended, ast, aerr := AppendDecodeStream(stale[:keep], data)
	if aerr != nil || ast != wst || len(appended) != keep+len(want) || !reflect.DeepEqual(appended[keep:], got) {
		return "decode after a kept prefix differs"
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// damagedVariants returns data cut at every length and with every byte
// after the header flipped by each of a few masks — the marker, a varint's
// continuation bit, a flag bit, the lot.
func damagedVariants(data []byte) [][]byte {
	var out [][]byte
	for cut := 0; cut < len(data); cut++ {
		out = append(out, data[:cut])
	}
	for pos := 4; pos < len(data); pos++ {
		for _, mask := range []byte{0x01, 0x41, 0x80, 0xA5 ^ data[pos], 0xff} {
			if mask == 0 {
				continue
			}
			v := append([]byte(nil), data...)
			v[pos] ^= mask
			out = append(out, v)
		}
	}
	return out
}

// TestDecodeMatchesReference: AppendDecodeStream decodes every stream — the
// fuzz seeds, each cut short at every length and damaged at every byte,
// and randomly damaged copies of a multi-body 16-NF trace — to the records
// and stats of the reference decode loop.
func TestDecodeMatchesReference(t *testing.T) {
	valid := fuzzSeedStream()
	markers := append([]byte("MST2"), make([]byte, 256)...)
	for i := 4; i < len(markers); i++ {
		markers[i] = frameMarker
	}
	seeds := [][]byte{valid, {}, []byte("MST2"), []byte("MST1"), []byte("nope"), markers}
	// A body with records out of time order, some at equal times.
	enc := NewEncoder()
	for i := 0; i < 100; i++ {
		at := simtime.Time(1000 - 37*i%50*3)
		enc.Append(&BatchRecord{Comp: "nf", Queue: "nf.in", At: at, Dir: DirRead, IPIDs: []uint16{uint16(i)}})
	}
	seeds = append(seeds, enc.Bytes())
	if _, st, _ := DecodeStream(enc.Bytes()); st.Resorted == 0 {
		t.Fatal("the out-of-order body decodes in order; it tests nothing")
	}
	var inputs [][]byte
	for _, s := range seeds {
		inputs = append(inputs, s)
		inputs = append(inputs, damagedVariants(s)...)
	}
	// Larger bodies, whole and with random bytes overwritten.
	_, slab := slabBody(300)
	eval := NewEncoder()
	for _, r := range evalTrace(3, simtime.Millisecond) {
		eval.Append(&r)
	}
	rng := rand.New(rand.NewSource(41))
	for _, body := range [][]byte{slab, eval.Bytes()} {
		inputs = append(inputs, body)
		for i := 0; i < 20; i++ {
			v := append([]byte(nil), body...)
			for k := 0; k < 1+i; k++ {
				v[4+rng.Intn(len(v)-4)] = byte(rng.Intn(256))
			}
			inputs = append(inputs, v[:len(v)-rng.Intn(64)])
		}
	}
	for i, in := range inputs {
		if d := decodeDiff(in); d != "" {
			t.Fatalf("input %d (%d bytes): %s", i, len(in), d)
		}
	}
}

// TestVarintsMatchBinary: the decoder's varint readers — uvarint, and
// timeVarint with its eight-byte loads — accept what binary.Uvarint accepts,
// with the same value and length, and reject what it rejects: every one-
// and two-byte input, every length of continuation run, the ten-byte
// overflow edge, and each of them ended early by the payload's end with
// more stream bytes behind it.
func TestVarintsMatchBinary(t *testing.T) {
	var inputs [][]byte
	for v := 0; v < 1<<16; v++ {
		inputs = append(inputs, []byte{byte(v)}, []byte{byte(v), byte(v >> 8)})
	}
	for n := 1; n <= 12; n++ {
		for _, last := range []byte{0, 1, 2, 0x7f, 0x80} {
			in := bytes.Repeat([]byte{0xff}, n-1)
			inputs = append(inputs, append(in, last))
		}
	}
	for _, v := range []uint64{0, 127, 128, 1 << 20, 1<<35 + 7, 1<<49 - 1, 1 << 56, 1<<63 + 5, 1<<64 - 1} {
		inputs = append(inputs, binary.AppendUvarint(nil, v))
	}
	for _, in := range inputs {
		// The payload is in, followed by stream bytes that must not be
		// read as part of it.
		stream := append(slices.Clip(in), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
		for _, end := range []int{len(in), len(in) - 1} {
			if end < 0 {
				continue
			}
			want, n := binary.Uvarint(in[:end])
			for _, read := range []struct {
				name string
				fn   func([]byte, int) (uint64, int, bool)
			}{{"uvarint", uvarint}, {"timeVarint", timeVarint}} {
				got, next, ok := read.fn(stream[:end], 0)
				if ok != (n > 0) || ok && (got != want || next != n) {
					t.Fatalf("%s(% x, payload %d bytes) = %d, %v at %d; binary.Uvarint = %d, %d", read.name, in, end, got, ok, next, want, n)
				}
			}
		}
	}
}

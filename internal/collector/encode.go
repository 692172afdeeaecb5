package collector

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// The compact trace codec. The paper compresses runtime data to about two
// bytes per packet: IPIDs are two bytes each, batch metadata (component,
// direction, timestamp, size) is a handful of varint bytes amortized over up
// to 32 packets, and five-tuples appear only in egress records.
//
// Stream layout (current format, magic "MST2"), all integers varint unless
// noted:
//
//	magic "MST2"
//	repeated frames:
//	  0xA5      — frame marker (1 byte), the resync anchor
//	  plen      — payload length in bytes
//	  payload:
//	    compRef — (id<<1)|isNew; when isNew, len + bytes follow and the
//	              string joins the component table
//	    dir     — 1 byte
//	    queueRef— only for DirWrite; same flagged mechanism (queue table)
//	    at      — absolute timestamp in nanoseconds
//	    n       — batch size
//	    n × ipid  — 2 bytes each, little endian
//	    n × tuple — 13 bytes each, only for DirDeliver
//
// Framing plus absolute timestamps are what make the stream corruption-
// tolerant: a decoder that hits a bad frame skips to the next 0xA5 marker
// that parses, losing only the damaged records, and record times never
// depend on a neighbour that may have been lost.

var magic = [4]byte{'M', 'S', 'T', '2'}

// frameMarker anchors every record frame; resynchronization scans for it.
const frameMarker = 0xA5

// maxFrameBytes bounds a sane payload length: a full 32-packet deliver
// record with fresh table strings stays well under this.
const maxFrameBytes = 1 << 16

// reorderWindow is how many records the Encoder holds back to absorb
// out-of-order appends (late hook deliveries, cross-core timestamp races).
const reorderWindow = 32

// Encoder serializes BatchRecords into the compact stream. Records may
// arrive slightly out of time order: the encoder holds back the newest
// reorderWindow records sorted by time and writes the oldest once the
// window is full. A record later than that is written out of order (the
// format carries absolute times); every reader (AppendDecodeStream) stably
// re-sorts and counts it in DecodeStats.Resorted.
type Encoder struct {
	buf    []byte
	comps  map[string]uint64
	queues map[string]uint64
	// pending is the reorder buffer, kept sorted by At.
	pending []BatchRecord
	scratch []byte
}

// NewEncoder returns an Encoder with the magic header written.
func NewEncoder() *Encoder {
	e := &Encoder{
		comps:  make(map[string]uint64),
		queues: make(map[string]uint64),
	}
	e.buf = append(e.buf, magic[:]...)
	return e
}

func putUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// putRef appends a flagged table reference: known strings encode as
// (id<<1), new strings as (id<<1)|1 followed by len + bytes.
func putRef(dst []byte, table map[string]uint64, s string) []byte {
	id, ok := table[s]
	if !ok {
		id = uint64(len(table))
		table[s] = id
		dst = putUvarint(dst, id<<1|1)
		dst = putUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	}
	return putUvarint(dst, id<<1)
}

// Append stages one record, encoding the oldest held-back record once the
// reorder window is full.
func (e *Encoder) Append(r *BatchRecord) {
	// Insert sorted by At; in-order input appends at the tail.
	i := len(e.pending)
	for i > 0 && e.pending[i-1].At > r.At {
		i--
	}
	e.pending = append(e.pending, BatchRecord{})
	copy(e.pending[i+1:], e.pending[i:])
	e.pending[i] = *r
	if len(e.pending) <= reorderWindow {
		return
	}
	head := e.pending[0]
	copy(e.pending, e.pending[1:])
	e.pending = e.pending[:len(e.pending)-1]
	e.encode(&head)
}

// encode writes one frame.
func (e *Encoder) encode(r *BatchRecord) {
	p := e.scratch[:0]
	p = putRef(p, e.comps, r.Comp)
	p = append(p, byte(r.Dir))
	if r.Dir == DirWrite {
		p = putRef(p, e.queues, r.Queue)
	}
	p = putUvarint(p, uint64(r.At))
	p = putUvarint(p, uint64(len(r.IPIDs)))
	for _, id := range r.IPIDs {
		p = append(p, byte(id), byte(id>>8))
	}
	if r.Dir == DirDeliver {
		for _, t := range r.Tuples {
			p = append(p,
				byte(t.SrcIP), byte(t.SrcIP>>8), byte(t.SrcIP>>16), byte(t.SrcIP>>24),
				byte(t.DstIP), byte(t.DstIP>>8), byte(t.DstIP>>16), byte(t.DstIP>>24),
				byte(t.SrcPort), byte(t.SrcPort>>8),
				byte(t.DstPort), byte(t.DstPort>>8),
				t.Proto)
		}
	}
	e.scratch = p
	e.buf = append(e.buf, frameMarker)
	e.buf = putUvarint(e.buf, uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// Bytes encodes the held-back records and returns the stream so far.
func (e *Encoder) Bytes() []byte {
	for i := range e.pending {
		e.encode(&e.pending[i])
	}
	e.pending = e.pending[:0]
	return e.buf
}

// DecodeStats reports how decoding went on a possibly damaged stream.
type DecodeStats struct {
	// Records successfully decoded.
	Records int
	// Skipped frames/records lost to corruption or truncation.
	Skipped int
	// Resyncs counts scans for the next frame marker after a bad frame.
	Resyncs int
	// Resorted counts records that arrived out of stream order and were
	// stably re-sorted by timestamp.
	Resorted int
	// BytesSkipped is how much of the stream was discarded.
	BytesSkipped int
}

// Damaged reports whether the stream lost anything in decoding.
func (s DecodeStats) Damaged() bool { return s.Skipped > 0 }

// Decode parses a stream produced by Encoder back into records, strictly:
// any corruption is returned as an error. Use DecodeStream to salvage the
// intact records of a damaged stream instead.
func Decode(data []byte) ([]BatchRecord, error) {
	recs, st, err := DecodeStream(data)
	if err != nil {
		return nil, err
	}
	if st.Damaged() {
		return nil, fmt.Errorf("collector: stream damaged: %d records skipped (%d resyncs, %d bytes lost)",
			st.Skipped, st.Resyncs, st.BytesSkipped)
	}
	return recs, nil
}

// DecodeStream parses a stream tolerantly: corrupt frames are skipped, the
// decoder resynchronizes on the next frame boundary, and every intact
// record is returned together with accounting of what was lost. The error
// is non-nil only when the stream has no usable header at all.
func DecodeStream(data []byte) ([]BatchRecord, DecodeStats, error) {
	return AppendDecodeStream(nil, data)
}

// AppendDecodeStream is DecodeStream appending the records to dst, whose
// spare capacity they are decoded into in place: a caller that decodes
// body after body into the same dst[:0] allocates no record storage once
// it is large enough. Every appended slot is overwritten whole, so stale
// contents never leak into a record. The stats count this stream only; on
// an error dst is returned as it was given.
func AppendDecodeStream(dst []BatchRecord, data []byte) ([]BatchRecord, DecodeStats, error) {
	var st DecodeStats
	if len(data) < 4 {
		return dst, st, errors.New("collector: short stream")
	}
	if [4]byte(data[:4]) != magic {
		return dst, st, errors.New("collector: bad magic")
	}

	data = slices.Clip(data) // timeVarint reads ahead within the stream, never past it
	d := &frameDecoder{}
	start := len(dst)
	// One make and a copy, not slices.Grow: under the race detector the
	// compiler does not fuse Grow's append(make), and it allocates twice.
	if need := countFrames(data); cap(dst)-len(dst) < need {
		grown := make([]BatchRecord, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	if dst == nil {
		dst = []BatchRecord{} // a stream with a header decodes to a non-nil slice
	}
	// Each record is checked against the one before it as it lands, so
	// the time order needs no second scan of the records.
	pos := 4
	for pos < len(data) {
		if data[pos] != frameMarker {
			// Lost framing: scan for the next marker that parses.
			next := d.resync(data, pos)
			st.Resyncs++
			st.Skipped++
			st.BytesSkipped += next - pos
			pos = next
			continue
		}
		// Decode into the next slot; it joins dst only if the frame parses.
		n := len(dst)
		if n == cap(dst) {
			dst = slices.Grow(dst, 1)
		}
		end, ok := d.frame(data, pos, &dst[:n+1][n], false)
		if !ok {
			next := d.resync(data, pos+1)
			st.Resyncs++
			st.Skipped++
			st.BytesSkipped += next - pos
			pos = next
			continue
		}
		dst = dst[:n+1]
		if n > start && dst[n].At < dst[n-1].At {
			st.Resorted++
		}
		pos = end
	}
	st.Records = len(dst) - start
	if st.Resorted > 0 {
		sortByTime(dst[start:])
	}
	return dst, st, nil
}

// minPayloadBytes is the shortest payload that can parse: a one-byte
// component reference, the direction, a one-byte time delta and a zero
// packet count.
const minPayloadBytes = 4

// countFrames walks the frame headers of an MST2 stream without parsing
// the payloads: the exact record count of an intact stream, a lower bound
// for a damaged one (the walk stops at the first bad header). A payload too
// short to hold a record is a bad header: the count sizes an allocation, and
// must not be inflated by a body of empty frames.
func countFrames(data []byte) int {
	n := 0
	for pos := 4; pos < len(data) && data[pos] == frameMarker; n++ {
		plen, next, ok := uvarint(data, pos+1)
		if !ok || plen < minPayloadBytes || plen > maxFrameBytes {
			break
		}
		pos = next + int(plen)
	}
	return n
}

// ipidChunk and tupleChunk are how many entries a payload slab chunk holds
// (8 KiB each): large enough that a body of thousands of records costs a
// handful of allocations, small enough that the last record alive in a
// chunk pins little.
const (
	ipidChunk  = 4096
	tupleChunk = 512
)

// slab hands out the IPIDs and Tuples of one body's records, carved from
// shared chunks. Both decoders (MST2 frames and JSON) and the Collector
// use it.
type slab struct {
	// ipids and tuples are the unused tails of the current chunks. A
	// record's slices are cut off the front; when a chunk cannot hold the
	// next record a new one is started — never grown and moved, since
	// earlier records alias it.
	ipids  []uint16
	tuples []packet.FiveTuple
}

// ipidsOf returns n IPID slots with no spare capacity. bound is how many
// IPIDs the rest of the input can hold at most, these n included, so a
// short input gets a short chunk.
func (s *slab) ipidsOf(n, bound int) []uint16 {
	return carve(&s.ipids, n, min(ipidChunk, bound))
}

// tuplesOf is ipidsOf for five-tuples.
func (s *slab) tuplesOf(n, bound int) []packet.FiveTuple {
	return carve(&s.tuples, n, min(tupleChunk, bound))
}

// carve cuts n entries off the front of *chunk, first starting a new chunk
// of max(n, size) entries when the current one is too short.
func carve[T any](chunk *[]T, n, size int) []T {
	// The nil test keeps an empty batch's slices non-nil, as make gave.
	if *chunk == nil || len(*chunk) < n {
		*chunk = make([]T, max(n, size))
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return out
}

// frameDecoder carries one stream's decode state across its frames: the
// string tables, and the slab the records' IPIDs and Tuples are carved
// from.
type frameDecoder struct {
	comps  []string
	queues []string
	// inQueues[i] is comps[i] + ".in", the read queue name, built the
	// first time component i reads.
	inQueues []string
	slab
	// left is how many stream bytes remain from the current payload on: an
	// upper bound on what is still to be carved, so a short stream gets
	// short chunks.
	left int
}

// frame parses one frame starting at the marker byte into *rec. It
// returns the position after the frame and whether the payload parsed
// exactly; a frame that does not parse leaves *rec partly written. A dry
// parse only validates: it builds no IPIDs or tuples and leaves the
// decoder as it found it.
func (d *frameDecoder) frame(data []byte, pos int, rec *BatchRecord, dry bool) (int, bool) {
	plen, p, ok := uvarint(data, pos+1) // past the marker
	if !ok || plen > maxFrameBytes {
		return 0, false
	}
	end := p + int(plen)
	if end > len(data) {
		return 0, false
	}
	// Table mutations must not survive a failed parse: stage and commit.
	compsLen, queuesLen := len(d.comps), len(d.queues)
	d.left = len(data) - p
	ok = d.payload(data[p:end], rec, dry)
	if !ok || dry {
		d.comps = d.comps[:compsLen]
		d.queues = d.queues[:queuesLen]
		if len(d.inQueues) > compsLen {
			d.inQueues = d.inQueues[:compsLen]
		}
	}
	if !ok {
		return 0, false
	}
	return end, true
}

// The payload's fields are read by position: each reader takes the buffer
// and where the field starts, and returns the value and where the next
// field starts. A payload's capacity may run on into the rest of the
// stream (see timeVarint).

// uvarint reads the varint at b[pos:], accepting exactly what
// binary.Uvarint does. It is written out rather than calling
// binary.Uvarint so that it inlines: lengths, table references and batch
// sizes nearly always fit in one byte, and a call would cost more than
// reading it.
func uvarint(b []byte, pos int) (uint64, int, bool) {
	var x uint64
	for s := uint(0); pos < len(b) && s < 64; s += 7 {
		c := b[pos]
		pos++
		if c < 0x80 {
			return x | uint64(c)<<s, pos, s < 63 || c <= 1
		}
		x |= uint64(c&0x7f) << s
	}
	return 0, pos, false
}

// timeVarint reads the timestamp, a varint of several bytes, eight at a
// time: the first byte without a continuation bit ends it, and the 7-bit
// groups before it are packed together. The eight bytes may run on past
// the payload into the rest of the stream (b's capacity, which
// AppendDecodeStream clips to the stream), but the varint must end within
// the payload. A longer varint, or one too near the end of the stream,
// goes through uvarint.
func timeVarint(b []byte, pos int) (uint64, int, bool) {
	if pos+8 <= cap(b) {
		u := binary.LittleEndian.Uint64(b[pos : pos+8])
		if stop := ^u & 0x8080808080808080; stop != 0 {
			if n := bits.TrailingZeros64(stop)>>3 + 1; pos+n <= len(b) {
				u &= stop ^ (stop - 1)
				return u&0x7f | u>>1&(0x7f<<7) | u>>2&(0x7f<<14) | u>>3&(0x7f<<21) |
					u>>4&(0x7f<<28) | u>>5&(0x7f<<35) | u>>6&(0x7f<<42) | u>>7&(0x7f<<49), pos + n, true
			}
		}
	}
	return uvarint(b, pos)
}

// define is the slow half of a flagged table reference — known strings
// encode as (id<<1), new ones as (id<<1)|1 followed by len + bytes — for a
// reference v, read with ok, that does not name a string the table holds:
// it appends the string a new reference defines, and rejects a malformed
// or dangling one. payload resolves a known reference, the usual case,
// inline.
func define(table *[]string, b []byte, pos int, v uint64, ok bool) (uint64, int, bool) {
	if !ok || v&1 == 0 || v>>1 != uint64(len(*table)) {
		return 0, pos, false
	}
	l, pos, ok := uvarint(b, pos)
	if !ok || l > uint64(len(b)-pos) {
		return 0, pos, false
	}
	*table = append(*table, string(b[pos:pos+int(l)]))
	return v, pos + int(l), true
}

// payload parses one record body into *rec, setting every field; it must
// consume the slice exactly. A dry parse leaves IPIDs and Tuples unset.
func (d *frameDecoder) payload(b []byte, rec *BatchRecord, dry bool) bool {
	v, pos, ok := uvarint(b, 0)
	if !ok || v&1 == 1 || v>>1 >= uint64(len(d.comps)) {
		if v, pos, ok = define(&d.comps, b, pos, v, ok); !ok {
			return false
		}
	}
	comp := int(v >> 1)
	if pos >= len(b) {
		return false
	}
	rec.Comp = d.comps[comp]
	rec.Dir = Dir(b[pos])
	pos++
	switch rec.Dir {
	case DirWrite:
		v, pos, ok = uvarint(b, pos)
		if !ok || v&1 == 1 || v>>1 >= uint64(len(d.queues)) {
			if v, pos, ok = define(&d.queues, b, pos, v, ok); !ok {
				return false
			}
		}
		rec.Queue = d.queues[v>>1]
	case DirRead:
		for len(d.inQueues) <= comp {
			d.inQueues = append(d.inQueues, "")
		}
		if d.inQueues[comp] == "" {
			d.inQueues[comp] = rec.Comp + ".in"
		}
		rec.Queue = d.inQueues[comp]
	case DirDeliver:
		if rec.Queue != "" { // a slot reused from an earlier record
			rec.Queue = ""
		}
	default:
		return false
	}
	at, pos, ok := timeVarint(b, pos)
	if !ok {
		return false
	}
	rec.At = simtime.Time(at)
	n, pos, ok := uvarint(b, pos)
	if !ok {
		return false
	}
	need := int(n) * 2
	if rec.Dir == DirDeliver {
		need = int(n) * 15
	}
	// Exact consumption is checked before anything is carved off the
	// slabs, so a frame that fails to parse never uses them.
	if n > maxFrameBytes || pos+need != len(b) {
		return false
	}
	if dry {
		return true
	}
	rec.IPIDs = d.ipidsOf(int(n), d.left/2)
	src := b[pos : pos+2*len(rec.IPIDs)]
	for i := range rec.IPIDs {
		rec.IPIDs[i] = uint16(src[2*i]) | uint16(src[2*i+1])<<8
	}
	pos += len(src)
	if rec.Tuples != nil { // a slot reused from an earlier record
		rec.Tuples = nil
	}
	if rec.Dir == DirDeliver {
		rec.Tuples = d.tuplesOf(int(n), d.left/15)
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

// resync finds the next frame marker at or after pos whose frame parses
// against the decoder's current tables (a dry parse, which leaves them
// untouched), or len(data).
func (d *frameDecoder) resync(data []byte, pos int) int {
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

// Inversions counts the adjacent pairs of recs that are out of time order:
// zero means recs is in time order.
func Inversions(recs []BatchRecord) int {
	n := 0
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			n++
		}
	}
	return n
}

// SortByTime restores time order in place — stably, so records at one
// instant keep their stream order — and returns how many adjacent pairs
// were out of order: what an Integrity counts as Resorted.
func SortByTime(recs []BatchRecord) int {
	n := Inversions(recs)
	if n > 0 {
		sortByTime(recs)
	}
	return n
}

// sortByTime is SortByTime's stable sort, for a caller that counted the
// inversions itself.
func sortByTime(recs []BatchRecord) {
	slices.SortStableFunc(recs, func(a, b BatchRecord) int { return cmp.Compare(a.At, b.At) })
}

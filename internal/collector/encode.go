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
// format carries absolute times); every reader stably re-sorts it
// (AppendDecodeStream; a FrameReader's caller) and counts it in
// DecodeStats.Resorted.
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

// Integrity is what a trace decoded from the stream knows it lost and
// resorted.
func (s DecodeStats) Integrity() Integrity {
	return Integrity{DecodeSkipped: s.Skipped, DecodeResyncs: s.Resyncs, Resorted: s.Resorted}
}

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
	r, err := NewFrameReader(data)
	if err != nil {
		return dst, DecodeStats{}, err
	}
	start := len(dst)
	if dst == nil {
		dst = []BatchRecord{} // a stream with a header decodes to a non-nil slice
	}
	for r.pos < len(r.data) {
		// Decode into the next slot; it joins dst only if a frame parses.
		// Out of room, dst grows once for every frame still to come, so a
		// destination that already has the room never counts them.
		n := len(dst)
		if n == cap(dst) {
			// At least a quarter more, so that growing a frame at a time
			// through a damaged stream stays linear. One make and a copy,
			// not slices.Grow: under the race detector the compiler does
			// not fuse Grow's append(make), and it allocates twice.
			grown := make([]BatchRecord, n, n+max(countFrames(r.data, r.pos), n/4, 1))
			copy(grown, dst)
			dst = grown
		}
		// An intact frame is taken here; next resynchronizes.
		slot := &dst[:n+1][n]
		if r.data[r.pos] != frameMarker || !r.frame(r.pos, slot, carvePackets) {
			if !r.next(slot, carvePackets) {
				break
			}
		}
		dst = dst[:n+1]
	}
	st := r.Stats()
	if st.Resorted > 0 {
		sortByTime(dst[start:])
	}
	return dst, st, nil
}

// FrameReader reads an MST2 stream one frame at a time, with
// AppendDecodeStream's tolerance: a frame that does not parse is skipped,
// the reader resynchronizes on the next frame marker whose frame parses,
// and the loss is counted in Stats. Records come out in stream order,
// which it does not sort: Stats().Resorted counts the adjacent pairs out
// of time order. Two readers over the same stream see the same records.
type FrameReader struct {
	data []byte
	// pos is where the next frame is looked for; prev is the time of the
	// last record read.
	pos  int
	st   DecodeStats
	prev simtime.Time

	// The string tables frames refer to. inQueues[i] is comps[i] + ".in",
	// the read queue name, built the first time component i reads.
	comps, queues, inQueues []string
	// slab is what the records' IPIDs and Tuples are carved from
	// (AppendDecodeStream).
	slab
	// n is the batch size of the last frame read.
	n int
}

// NewFrameReader returns a reader positioned at the first frame of data.
// The error is non-nil only when data has no MST2 header.
func NewFrameReader(data []byte) (*FrameReader, error) {
	if len(data) < 4 {
		return nil, errors.New("collector: short stream")
	}
	if [4]byte(data[:4]) != magic {
		return nil, errors.New("collector: bad magic")
	}
	// timeVarint reads ahead within the stream, never past it.
	return &FrameReader{data: slices.Clip(data), pos: 4}, nil
}

// Next decodes the next intact frame into *rec, every field, with its
// IPIDs and Tuples in rec's own storage (grown when short), and reports
// false at the end of the stream. A caller that passes one record
// throughout decodes without allocating once that storage has grown to
// the largest batch; the record's strings are the reader's, shared by
// every record that names them.
func (r *FrameReader) Next(rec *BatchRecord) bool { return r.next(rec, reusePackets) }

// NextHeader is Next without the packets: it sets rec's Comp, Queue, At and
// Dir, returns the batch size, and leaves IPIDs and Tuples as they were.
func (r *FrameReader) NextHeader(rec *BatchRecord) (n int, ok bool) {
	ok = r.next(rec, headerOnly)
	return r.n, ok
}

// Stats returns the accounting of the frames read so far.
func (r *FrameReader) Stats() DecodeStats { return r.st }

// next decodes the next frame that parses into *rec as mode says,
// resynchronizing past the bytes before it.
func (r *FrameReader) next(rec *BatchRecord, mode frameMode) bool {
	for r.pos < len(r.data) {
		from := r.pos
		if r.data[from] == frameMarker {
			if r.frame(from, rec, mode) {
				return true
			}
			from++
		}
		// Lost framing: scan for the next marker that parses.
		next := r.resync(from)
		r.st.Resyncs++
		r.st.Skipped++
		r.st.BytesSkipped += next - r.pos
		r.pos = next
	}
	return false
}

// minPayloadBytes is the shortest payload that can parse: a one-byte
// component reference, the direction, a one-byte time delta and a zero
// packet count.
const minPayloadBytes = 4

// countFrames walks the frame headers of an MST2 stream from pos on without
// parsing the payloads: the exact record count of an intact stream, a lower
// bound for a damaged one (the walk stops at the first bad header). A
// payload too short to hold a record is a bad header: the count sizes an
// allocation, and must not be inflated by a body of empty frames.
func countFrames(data []byte, pos int) int {
	n := 0
	for ; pos < len(data) && data[pos] == frameMarker; n++ {
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

// grown returns s resized to n entries, reallocated only when its capacity
// falls short; the contents are for the caller to overwrite.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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

// frameMode is what parsing a frame builds besides its header fields (Comp,
// Queue, At, Dir) and where it puts the packets.
type frameMode uint8

const (
	// carvePackets carves the IPIDs and Tuples off the decoder's slab, so
	// that every record keeps its own (AppendDecodeStream).
	carvePackets frameMode = iota
	// reusePackets decodes them into the record's own storage
	// (FrameReader.Next).
	reusePackets
	// headerOnly builds no IPIDs or Tuples; the batch size is left in n.
	headerOnly
	// dryRun is headerOnly that leaves the string tables as it found them:
	// it only checks that a frame parses (resync).
	dryRun
)

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
// reference v, read with ok, that does not name one of the table's n
// strings: it returns the string a new reference defines, and rejects a
// malformed or dangling one. frame resolves a known reference, the usual
// case, inline.
func define(n int, b []byte, pos int, v uint64, ok bool) (string, int, bool) {
	if !ok || v&1 == 0 || v>>1 != uint64(n) {
		return "", pos, false
	}
	l, pos, ok := uvarint(b, pos)
	if !ok || l > uint64(len(b)-pos) {
		return "", pos, false
	}
	return string(b[pos : pos+int(l)]), pos + int(l), true
}

// frame parses the frame whose marker is at mark into *rec, setting every
// field that mode builds; the payload must parse exactly. A frame that
// parses is read: the reader moves past it and counts its record, and a
// string it defines joins its table. A dry run only reports whether the
// frame parses, and a frame that does not parse leaves *rec partly written
// and the reader as it was.
func (r *FrameReader) frame(mark int, rec *BatchRecord, mode frameMode) bool {
	data := r.data
	plen, p, ok := uvarint(data, mark+1)
	if !ok || plen > maxFrameBytes || plen > uint64(len(data)-p) {
		return false
	}
	end := p + int(plen)
	b := data[p:end]

	v, pos, ok := uvarint(b, 0)
	comp, newComp := int(v>>1), false
	if !ok || v&1 == 1 || v>>1 >= uint64(len(r.comps)) {
		if rec.Comp, pos, ok = define(len(r.comps), b, pos, v, ok); !ok {
			return false
		}
		comp, newComp = len(r.comps), true
	} else {
		rec.Comp = r.comps[comp]
	}
	if pos >= len(b) {
		return false
	}
	rec.Dir = Dir(b[pos])
	pos++
	newQueue, newInQueue := false, false
	switch rec.Dir {
	case DirWrite:
		v, pos, ok = uvarint(b, pos)
		if !ok || v&1 == 1 || v>>1 >= uint64(len(r.queues)) {
			if rec.Queue, pos, ok = define(len(r.queues), b, pos, v, ok); !ok {
				return false
			}
			newQueue = true
		} else {
			rec.Queue = r.queues[v>>1]
		}
	case DirRead:
		// inQueues[comp] is built the first time component comp reads.
		if comp < len(r.inQueues) && r.inQueues[comp] != "" {
			rec.Queue = r.inQueues[comp]
		} else {
			newInQueue = true
		}
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
	// slabs or added to the tables, so a frame that fails to parse changes
	// neither.
	if n > maxFrameBytes || pos+need != len(b) {
		return false
	}
	if mode == dryRun {
		return true
	}
	r.pos = end
	if r.st.Records > 0 && rec.At < r.prev {
		r.st.Resorted++
	}
	r.st.Records++
	r.prev = rec.At
	if newComp {
		r.comps = append(r.comps, rec.Comp)
	}
	if newQueue {
		r.queues = append(r.queues, rec.Queue)
	}
	if newInQueue {
		for len(r.inQueues) <= comp {
			r.inQueues = append(r.inQueues, "")
		}
		r.inQueues[comp] = QueueOf(rec.Comp)
		rec.Queue = r.inQueues[comp]
	}
	r.n = int(n)
	if mode == headerOnly {
		return true
	}
	left := len(data) - p // an upper bound on what is still to be carved
	if mode == reusePackets {
		rec.IPIDs = grown(rec.IPIDs, int(n))
	} else {
		rec.IPIDs = r.ipidsOf(int(n), left/2)
	}
	src := b[pos : pos+2*len(rec.IPIDs)]
	for i := range rec.IPIDs {
		rec.IPIDs[i] = uint16(src[2*i]) | uint16(src[2*i+1])<<8
	}
	pos += len(src)
	switch {
	case rec.Dir == DirDeliver && mode == reusePackets:
		rec.Tuples = grown(rec.Tuples, int(n))
	case rec.Dir == DirDeliver:
		rec.Tuples = r.tuplesOf(int(n), left/15)
	case mode == reusePackets:
		rec.Tuples = rec.Tuples[:0] // kept for the next deliver
	case rec.Tuples != nil: // a slot reused from an earlier record
		rec.Tuples = nil
	}
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
	return true
}

// resync finds the next frame marker at or after pos whose frame parses
// against the reader's current tables (a dry run), or len(data).
func (r *FrameReader) resync(pos int) int {
	var scratch BatchRecord
	for ; pos < len(r.data); pos++ {
		if r.data[pos] == frameMarker && r.frame(pos, &scratch, dryRun) {
			return pos
		}
	}
	return len(r.data)
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

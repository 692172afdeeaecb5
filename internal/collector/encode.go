package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

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

// DefaultReorderWindow is how many records the Encoder buffers to absorb
// out-of-order appends (late hook deliveries, cross-core timestamp races).
const DefaultReorderWindow = 32

// EncodeStats counts how the encoder coped with imperfect input.
type EncodeStats struct {
	// Reordered records arrived out of order but were sorted within the
	// reorder window.
	Reordered int
	// Late records arrived too late even for the window and were emitted
	// out of stream order (the decoder re-sorts them).
	Late int
}

// Encoder serializes BatchRecords into the compact stream. Records may
// arrive slightly out of time order: a bounded reorder buffer sorts them
// before encoding instead of panicking (production hosts deliver hook
// callbacks with small timestamp races).
type Encoder struct {
	buf    []byte
	comps  map[string]uint64
	queues map[string]uint64
	lastT  simtime.Time // last encoded timestamp
	n      int
	window int
	// pending is the reorder buffer, kept sorted by At.
	pending []BatchRecord
	stats   EncodeStats
	scratch []byte
}

// NewEncoder returns an Encoder with the magic header written and the
// default reorder window.
func NewEncoder() *Encoder {
	e := &Encoder{
		comps:  make(map[string]uint64),
		queues: make(map[string]uint64),
		window: DefaultReorderWindow,
	}
	e.buf = append(e.buf, magic[:]...)
	return e
}

// SetReorderWindow resizes the reorder buffer (0 disables buffering and
// encodes every record immediately). Call before the first Append.
func (e *Encoder) SetReorderWindow(w int) {
	if w < 0 {
		w = 0
	}
	e.window = w
}

// Stats returns encoding tolerance counters.
func (e *Encoder) Stats() EncodeStats { return e.stats }

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

// Append stages one record, encoding the oldest buffered record once the
// reorder window is full. It returns the number of bytes written to the
// stream by this call (zero while the record is only buffered).
func (e *Encoder) Append(r *BatchRecord) int {
	e.n++
	if e.window == 0 {
		return e.encodeNow(r)
	}
	// Insert sorted by At; in-order input appends at the tail.
	i := len(e.pending)
	for i > 0 && e.pending[i-1].At > r.At {
		i--
	}
	if i != len(e.pending) {
		e.stats.Reordered++
	}
	e.pending = append(e.pending, BatchRecord{})
	copy(e.pending[i+1:], e.pending[i:])
	e.pending[i] = *r
	if len(e.pending) <= e.window {
		return 0
	}
	head := e.pending[0]
	copy(e.pending, e.pending[1:])
	e.pending = e.pending[:len(e.pending)-1]
	return e.encodeNow(&head)
}

// Flush encodes every buffered record, returning the bytes written.
func (e *Encoder) Flush() int {
	written := 0
	for i := range e.pending {
		written += e.encodeNow(&e.pending[i])
	}
	e.pending = e.pending[:0]
	return written
}

// encodeNow writes one frame. Records older than the last encoded
// timestamp (beyond the reorder window) are still representable — the
// format carries absolute times and the decoder re-sorts — but counted.
func (e *Encoder) encodeNow(r *BatchRecord) int {
	if r.At < e.lastT {
		e.stats.Late++
	} else {
		e.lastT = r.At
	}
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
	start := len(e.buf)
	e.buf = append(e.buf, frameMarker)
	e.buf = putUvarint(e.buf, uint64(len(p)))
	e.buf = append(e.buf, p...)
	return len(e.buf) - start
}

// Bytes flushes the reorder buffer and returns the encoded stream so far.
func (e *Encoder) Bytes() []byte {
	e.Flush()
	return e.buf
}

// size reports staged stream bytes without flushing the reorder buffer.
func (e *Encoder) size() int { return len(e.buf) }

// Len returns the number of records appended.
func (e *Encoder) Len() int { return e.n }

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
	var st DecodeStats
	if len(data) < 4 {
		return nil, st, errors.New("collector: short stream")
	}
	if [4]byte(data[:4]) != magic {
		return nil, st, errors.New("collector: bad magic")
	}

	d := &frameDecoder{}
	out := make([]BatchRecord, 0, countFrames(data))
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
		rec, end, ok := d.frame(data, pos, false)
		if !ok {
			next := d.resync(data, pos+1)
			st.Resyncs++
			st.Skipped++
			st.BytesSkipped += next - pos
			pos = next
			continue
		}
		out = append(out, rec)
		pos = end
	}
	st.Records = len(out)
	st.Resorted = resort(out)
	return out, st, nil
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
		plen, k := binary.Uvarint(data[pos+1:])
		if k <= 0 || plen < minPayloadBytes || plen > maxFrameBytes {
			break
		}
		pos += 1 + k + int(plen)
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
// shared chunks. Both decoders (MST2 frames and JSON) use it.
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

// frame parses one frame starting at the marker byte. It returns the
// decoded record, the position after the frame, and whether the payload
// parsed exactly. A dry parse only validates: it builds no IPIDs or
// tuples and leaves the decoder as it found it.
func (d *frameDecoder) frame(data []byte, pos int, dry bool) (BatchRecord, int, bool) {
	var rec BatchRecord
	p := pos + 1 // skip marker
	plen, n := binary.Uvarint(data[p:])
	if n <= 0 || plen > maxFrameBytes {
		return rec, 0, false
	}
	p += n
	end := p + int(plen)
	if end > len(data) {
		return rec, 0, false
	}
	// Table mutations must not survive a failed parse: stage and commit.
	compsLen, queuesLen := len(d.comps), len(d.queues)
	d.left = len(data) - p
	r, ok := d.payload(data[p:end], dry)
	if !ok || dry {
		d.comps = d.comps[:compsLen]
		d.queues = d.queues[:queuesLen]
		if len(d.inQueues) > compsLen {
			d.inQueues = d.inQueues[:compsLen]
		}
	}
	if !ok {
		return rec, 0, false
	}
	return r, end, true
}

// payload parses one record body; it must consume the slice exactly.
func (d *frameDecoder) payload(b []byte, dry bool) (BatchRecord, bool) {
	var rec BatchRecord
	pos := 0
	getUvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	// getRef resolves a flagged table reference to its index.
	getRef := func(table *[]string) (int, bool) {
		v, ok := getUvarint()
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
		l, ok := getUvarint()
		if !ok || l > uint64(len(b)) || pos+int(l) > len(b) {
			return 0, false
		}
		*table = append(*table, string(b[pos:pos+int(l)]))
		pos += int(l)
		return int(id), true
	}

	comp, ok := getRef(&d.comps)
	if !ok {
		return rec, false
	}
	rec.Comp = d.comps[comp]
	if pos >= len(b) {
		return rec, false
	}
	rec.Dir = Dir(b[pos])
	pos++
	if rec.Dir > DirDeliver {
		return rec, false
	}
	switch rec.Dir {
	case DirWrite:
		q, ok := getRef(&d.queues)
		if !ok {
			return rec, false
		}
		rec.Queue = d.queues[q]
	case DirRead:
		for len(d.inQueues) <= comp {
			d.inQueues = append(d.inQueues, "")
		}
		if d.inQueues[comp] == "" {
			d.inQueues[comp] = rec.Comp + ".in"
		}
		rec.Queue = d.inQueues[comp]
	}
	at, ok := getUvarint()
	if !ok {
		return rec, false
	}
	rec.At = simtime.Time(at)
	n, ok := getUvarint()
	if !ok {
		return rec, false
	}
	need := int(n) * 2
	if rec.Dir == DirDeliver {
		need = int(n) * 15
	}
	// Exact consumption is checked before anything is carved off the
	// slabs, so a frame that fails to parse never uses them.
	if n > maxFrameBytes || pos+need != len(b) {
		return rec, false
	}
	if dry {
		return rec, true
	}
	rec.IPIDs = d.ipidsOf(int(n), d.left/2)
	for i := range rec.IPIDs {
		rec.IPIDs[i] = uint16(b[pos]) | uint16(b[pos+1])<<8
		pos += 2
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
	return rec, true
}

// resync finds the next frame marker at or after pos whose frame parses
// against the decoder's current tables (a dry parse, which leaves them
// untouched), or len(data).
func (d *frameDecoder) resync(data []byte, pos int) int {
	for ; pos < len(data); pos++ {
		if data[pos] != frameMarker {
			continue
		}
		if _, _, ok := d.frame(data, pos, true); ok {
			return pos
		}
	}
	return len(data)
}

// resort restores time order after late-arrival frames, returning how many
// records were out of order.
func resort(recs []BatchRecord) int {
	out := 0
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			out++
		}
	}
	if out > 0 {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
	}
	return out
}

// Ring emulates the shared-memory staging buffer between the collector's
// critical path and the standalone dumper (§5). Put encodes a record into
// the ring; when the ring cannot hold the next record the dumper drains it
// (synchronously here — the simulator is single-threaded by design).
type Ring struct {
	enc       *Encoder
	capBytes  int
	drainMark int
	// Dumped accumulates the flushed stream, i.e. the "on disk" bytes.
	dumped []byte
	drains int
}

// NewRing creates a ring of the given byte capacity.
func NewRing(capBytes int) *Ring {
	if capBytes <= 0 {
		capBytes = 1 << 20
	}
	return &Ring{enc: NewEncoder(), capBytes: capBytes}
}

// Put stages one record, draining first if the ring is near capacity.
// It returns the bytes written to the staging stream by this call (zero
// while the record sits in the encoder's reorder buffer).
func (r *Ring) Put(rec *BatchRecord) int {
	if r.enc.size()-r.drainMark >= r.capBytes {
		r.Drain()
	}
	return r.enc.Append(rec)
}

// Drain flushes the encoder's reorder buffer and the staged bytes to the
// dumped stream, returning how many new bytes the flush encoded.
func (r *Ring) Drain() int {
	flushed := r.enc.Flush()
	b := r.enc.buf
	if len(b) > r.drainMark {
		r.dumped = append(r.dumped, b[r.drainMark:]...)
		r.drainMark = len(b)
		r.drains++
	}
	return flushed
}

// Encoder exposes the ring's encoder (for tolerance counters).
func (r *Ring) Encoder() *Encoder { return r.enc }

// Dumped returns the flushed byte stream. Note the encoder writes one
// contiguous stream; Dumped is its prefix up to the last drain.
func (r *Ring) Dumped() []byte { return r.dumped }

// Drains returns how many dumper flushes occurred.
func (r *Ring) Drains() int { return r.drains }

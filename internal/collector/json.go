package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unicode/utf8"

	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// The JSON ingest form: an array of BatchRecord objects, exactly what
// json.Marshal makes of a []BatchRecord:
//
//	[{"Comp":"fw1","Queue":"fw1.in","At":1200,"IPIDs":[7,9],"Tuples":null,"Dir":0}, ...]
//
// DecodeJSON reads it without reflection: each record in one straight pass
// over that layout (marshalled), and a record that departs from it at any
// byte again from its '{' in a general key loop. Its contract is parity with
// json.Unmarshal into a []BatchRecord on every input: it fails exactly
// when Unmarshal fails, and otherwise returns a reflect.DeepEqual result. That includes Unmarshal's less obvious rules — keys matched
// case-insensitively, the last of duplicate keys winning, unknown keys
// skipped but validated, null leaving a scalar or record untouched and
// making a slice nil, [] making it empty but not nil, and a duplicate slice
// key decoding into the backing array the previous one left. On top of
// that it rejects a record whose Dir is not read, write or deliver, as the
// MST2 decoder does.

// maxJSONDepth is encoding/json's nesting limit: the 10001st open array or
// object is a syntax error.
const maxJSONDepth = 10000

// Nesting depths of the containers DecodeJSON descends into, counting the
// record array as 1.
const (
	recordDepth = 2 // a record object
	tupleDepth  = 4 // a five-tuple object, inside a record's Tuples array
)

// Field numbers, in struct order.
const (
	fieldComp = iota
	fieldQueue
	fieldAt
	fieldIPIDs
	fieldTuples
	fieldDir
)

const (
	fieldSrcIP = iota
	fieldDstIP
	fieldSrcPort
	fieldDstPort
	fieldProto
)

var (
	recordFields = newJSONFields("Comp", "Queue", "At", "IPIDs", "Tuples", "Dir")
	tupleFields  = newJSONFields("SrcIP", "DstIP", "SrcPort", "DstPort", "Proto")
)

// jsonFields are a struct's field names in struct order, and the key token
// json.Marshal writes for each ("Name":).
type jsonFields struct {
	names, tokens []string
}

func newJSONFields(names ...string) *jsonFields {
	f := &jsonFields{names: names}
	for _, n := range names {
		f.tokens = append(f.tokens, `"`+n+`":`)
	}
	return f
}

// DecodeJSON decodes a JSON array of records, the ingest form json.Marshal
// produces. It accepts exactly what json.Unmarshal into a []BatchRecord
// accepts, less records whose Dir is out of range, and returns an equal
// result; a body of null decodes to nil. Comp and Queue strings are
// interned per body, and the records' IPIDs and Tuples are carved from
// shared slab chunks, as DecodeStream does.
func DecodeJSON(data []byte) ([]BatchRecord, error) {
	return AppendDecodeJSON(nil, data)
}

// AppendDecodeJSON is DecodeJSON appending the records to dst, whose spare
// capacity they are decoded into in place; each appended slot starts from
// the zero record, as in a fresh decode. An array body returns a non-nil
// slice even when it appends nothing, and a body of null appends nothing
// and returns dst as it is. On an error dst is returned as it was given.
func AppendDecodeJSON(dst []BatchRecord, data []byte) ([]BatchRecord, error) {
	d := jsonDecoder{data: data}
	recs, err := d.records(dst)
	if err != nil {
		return dst, err
	}
	if d.ws(); d.pos < len(data) {
		return dst, d.fail("data after the record array")
	}
	return recs, nil
}

// jsonDecoder is one body's decode state.
type jsonDecoder struct {
	data []byte
	pos  int
	// names interns Comp and Queue strings; recent caches its hits by a
	// hash of the spelling.
	names  map[string]string
	recent [1 << recentBits]string
	slab
	// ipids and tuples stand in for the backing arrays of the current
	// record's IPIDs and Tuples while its keys are read: a duplicate key
	// decodes into the elements a previous one left, and entries past the
	// end are zero. The record's slices are carved from the slab once the
	// record ends.
	ipids  []uint16
	tuples []packet.FiveTuple
}

func (d *jsonDecoder) fail(format string, args ...any) error {
	return fmt.Errorf("collector: JSON records at offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// ws skips whitespace and returns the next byte, or 0 at the end of the
// input. Callers test for the bytes a value or separator may start with,
// none of which is 0, so a 0 byte in the input fails like the end does.
func (d *jsonDecoder) ws() byte {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return d.data[d.pos]
	}
	return d.skipSpace()
}

func (d *jsonDecoder) skipSpace() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes the keyword lit at d.pos.
func (d *jsonDecoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.fail("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// more consumes the separator after a container element: it reports
// whether another element follows (a comma) or the container closed.
func (d *jsonDecoder) more(closer byte) (bool, error) {
	switch d.ws() {
	case ',':
		d.pos++
		return true, nil
	case closer:
		d.pos++
		return false, nil
	}
	return false, d.fail("expected ',' or %q", closer)
}

// records decodes the top-level value, appending its records to out.
func (d *jsonDecoder) records(out []BatchRecord) ([]BatchRecord, error) {
	switch d.ws() {
	case 'n':
		return out, d.literal("null")
	case '[':
	default:
		return nil, d.fail("records body is not a JSON array")
	}
	d.pos++
	if out == nil {
		out = []BatchRecord{}
	}
	if d.ws() == ']' {
		d.pos++
		return out, nil
	}
	for start := len(out); ; {
		if len(out) == cap(out) {
			out = slices.Grow(out, d.growth(len(out)-start))
		}
		out = append(out, BatchRecord{})
		if err := d.record(&out[len(out)-1], len(out)-1-start); err != nil {
			return nil, err
		}
		if more, err := d.more(']'); err != nil || !more {
			return out, err
		}
	}
}

// growth is how many more records to make room for once n are decoded:
// as many as the rest of the body holds at the density of the records so
// far, and at least a quarter more.
func (d *jsonDecoder) growth(n int) int {
	left := len(d.data) - d.pos
	return max(n/4, int(float64(n)*float64(left)/float64(d.pos))) + 1
}

// record decodes element i of the array into the zero record rec.
func (d *jsonDecoder) record(rec *BatchRecord, i int) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.fail("record %d is not a JSON object", i)
	}
	if d.marshalled(rec) {
		return nil
	}
	d.pos++
	d.ipids, d.tuples = d.ipids[:0], d.tuples[:0]
	nIPIDs, nTuples := -1, -1 // -1: nil
	if d.ws() == '}' {
		d.pos++
		return nil
	}
	for next := 0; ; {
		f, err := d.key(recordFields, next)
		if err != nil {
			return err
		}
		next = f + 1
		switch f {
		case fieldComp:
			err = d.stringField(&rec.Comp)
		case fieldQueue:
			err = d.stringField(&rec.Queue)
		case fieldAt:
			err = intField(d, &rec.At)
		case fieldIPIDs:
			nIPIDs, err = arrayField(d, &d.ipids, func(p *uint16) error { return uintField(d, p) })
		case fieldTuples:
			nTuples, err = arrayField(d, &d.tuples, d.tuple)
		case fieldDir:
			err = uintField(d, &rec.Dir)
		default:
			err = d.skip(recordDepth)
		}
		if err != nil {
			return err
		}
		more, err := d.more('}')
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	d.payload(rec, nIPIDs, nTuples)
	if rec.Dir > DirDeliver {
		return d.fail("record %d: Dir %d is not read (0), write (1) or deliver (2)", i, rec.Dir)
	}
	return nil
}

// payload carves rec's IPIDs and Tuples from the slab and copies in the
// first nIPIDs and nTuples elements of d.ipids and d.tuples; a count of -1
// leaves the slice nil.
func (d *jsonDecoder) payload(rec *BatchRecord, nIPIDs, nTuples int) {
	rest := len(d.data) - d.pos
	if nIPIDs >= 0 {
		rec.IPIDs = d.ipidsOf(nIPIDs, nIPIDs+rest/2)
		copy(rec.IPIDs, d.ipids)
	}
	if nTuples >= 0 {
		rec.Tuples = d.tuplesOf(nTuples, nTuples+rest/3)
		copy(rec.Tuples, d.tuples)
	}
}

// marshalled decodes the record whose '{' is at d.pos in one straight pass
// when it is laid out as json.Marshal writes a BatchRecord: every key in
// struct order and spelling, no space, strings of printable ASCII with no
// escape, integers in their shortest form, Dir at most 2. It matches each
// key token in place and parses each value inline. At the first byte that
// departs from that layout it returns false having changed neither rec nor
// d.pos, and the general key loop, which holds the parity contract, reads
// the record again from its '{'. What the pass left in the interning cache
// and the ipids and tuples scratch does not change what that loop reads.
func (d *jsonDecoder) marshalled(rec *BatchRecord) bool {
	data, i := d.data, d.pos
	if string(peek(data, i, len(compTok))) != compTok {
		return false
	}
	i += len(compTok)
	end, ok := plainEnd(data, i)
	if !ok || string(peek(data, end, len(queueTok))) != queueTok {
		return false
	}
	comp := d.intern(data[i:end])
	i = end + len(queueTok)
	if end, ok = plainEnd(data, i); !ok || string(peek(data, end, len(atTok))) != atTok {
		return false
	}
	queue := d.intern(data[i:end])
	i = end + len(atTok)
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	// -1<<63 is the one magnitude past MaxInt64 that At holds.
	mag, i, ok := digits(data, i)
	if !ok || mag > 1<<63 || mag == 1<<63 && !neg || string(peek(data, i, len(ipidsTok))) != ipidsTok {
		return false
	}
	at := simtime.Time(mag)
	if neg {
		at = -at
	}
	i += len(ipidsTok)

	more, nIPIDs := false, -1
	if string(peek(data, i, len("null"))) == "null" {
		i += len("null")
	} else {
		ipids := d.ipids[:0]
		for i, more, ok = arrayStart(data, i); ok && more; i, more, ok = arrayNext(data, i) {
			if mag, i, ok = digits(data, i); !ok || mag > math.MaxUint16 {
				return false
			}
			ipids = append(ipids, uint16(mag))
		}
		if !ok {
			return false
		}
		d.ipids, nIPIDs = ipids, len(ipids)
	}
	if string(peek(data, i, len(tuplesTok))) != tuplesTok {
		return false
	}
	i += len(tuplesTok)

	nTuples := -1
	if string(peek(data, i, len("null"))) == "null" {
		i += len("null")
	} else {
		tuples := d.tuples[:0]
		for i, more, ok = arrayStart(data, i); ok && more; i, more, ok = arrayNext(data, i) {
			tuples = append(tuples, packet.FiveTuple{})
			if i, ok = marshalledTuple(data, i, &tuples[len(tuples)-1]); !ok {
				return false
			}
		}
		if !ok {
			return false
		}
		d.tuples, nTuples = tuples, len(tuples)
	}

	// Dir is one digit, 0 to 2, and closes the record.
	dir := peek(data, i, len(dirTok)+2)
	if dir == nil || string(dir[:len(dirTok)]) != dirTok || Dir(dir[len(dirTok)]-'0') > DirDeliver || dir[len(dirTok)+1] != '}' {
		return false
	}
	rec.Comp, rec.Queue, rec.At, rec.Dir = comp, queue, at, Dir(dir[len(dirTok)]-'0')
	d.pos = i + len(dir)
	d.payload(rec, nIPIDs, nTuples)
	return true
}

// marshalledTuple is marshalled for the five-tuple object at data[i],
// returning the index past its '}'.
func marshalledTuple(data []byte, i int, t *packet.FiveTuple) (int, bool) {
	var src, dst, sport, dport, proto uint64
	ok := false
	if string(peek(data, i, len(srcIPTok))) != srcIPTok {
		return i, false
	}
	if src, i, ok = digits(data, i+len(srcIPTok)); !ok || string(peek(data, i, len(dstIPTok))) != dstIPTok {
		return i, false
	}
	if dst, i, ok = digits(data, i+len(dstIPTok)); !ok || string(peek(data, i, len(srcPortTok))) != srcPortTok {
		return i, false
	}
	if sport, i, ok = digits(data, i+len(srcPortTok)); !ok || string(peek(data, i, len(dstPortTok))) != dstPortTok {
		return i, false
	}
	if dport, i, ok = digits(data, i+len(dstPortTok)); !ok || string(peek(data, i, len(protoTok))) != protoTok {
		return i, false
	}
	if proto, i, ok = digits(data, i+len(protoTok)); !ok || i == len(data) || data[i] != '}' ||
		src > math.MaxUint32 || dst > math.MaxUint32 || sport > math.MaxUint16 || dport > math.MaxUint16 || proto > math.MaxUint8 {
		return i, false
	}
	*t = packet.FiveTuple{SrcIP: uint32(src), DstIP: uint32(dst), SrcPort: uint16(sport), DstPort: uint16(dport), Proto: uint8(proto)}
	return i + 1, true
}

// What json.Marshal writes between a BatchRecord's values, each token
// running from the end of one value to the start of the next. Comparing a
// peek with one of these constants compiles to a few word compares.
const (
	compTok    = `{"Comp":"`
	queueTok   = `","Queue":"`
	atTok      = `","At":`
	ipidsTok   = `,"IPIDs":`
	tuplesTok  = `,"Tuples":`
	dirTok     = `,"Dir":`
	srcIPTok   = `{"SrcIP":`
	dstIPTok   = `,"DstIP":`
	srcPortTok = `,"SrcPort":`
	dstPortTok = `,"DstPort":`
	protoTok   = `,"Proto":`
)

// peek returns the n bytes at data[i:], or nil when fewer are left.
func peek(data []byte, i, n int) []byte {
	if len(data)-i < n {
		return nil
	}
	return data[i : i+n]
}

// arrayStart matches the '[' opening an array at data[i] and reports
// whether an element follows it, or a ']' closing the array at once.
func arrayStart(data []byte, i int) (next int, more, ok bool) {
	if len(data)-i < 2 || data[i] != '[' {
		return i, false, false
	}
	if data[i+1] == ']' {
		return i + 2, false, true
	}
	return i + 1, true, true
}

// arrayNext matches the ',' or ']' after an array element at data[i] and
// reports whether another element follows.
func arrayNext(data []byte, i int) (next int, more, ok bool) {
	if i == len(data) {
		return i, false, false
	}
	switch data[i] {
	case ',':
		return i + 1, true, true
	case ']':
		return i + 1, false, true
	}
	return i, false, false
}

// digits parses the unsigned integer json.Marshal writes at data[i:]: 0,
// or up to 19 digits not starting with 0. It returns the index past them;
// the byte there, which the caller matches, must not be a digit.
func digits(data []byte, i int) (mag uint64, end int, ok bool) {
	if i == len(data) || data[i]-'0' > 9 {
		return 0, i, false
	}
	if data[i] == '0' {
		return 0, i + 1, true
	}
	end = min(len(data), i+19) // 19 digits always fit
	for j := i; j < end; j++ {
		c := data[j] - '0'
		if c > 9 {
			return mag, j, true
		}
		mag = mag*10 + uint64(c)
	}
	return mag, end, end == len(data) || data[end]-'0' > 9
}

// Masks for testing the eight bytes of a word at once.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// plainEnd returns the index of the quote closing the string whose content
// starts at data[i], eight bytes at a time. It fails on the first byte that
// is a backslash, a control character or outside ASCII, and once fewer than
// eight bytes are left: they cannot hold the rest of the string and the
// record after it.
func plainEnd(data []byte, i int) (int, bool) {
	for ; len(data)-i >= 8; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		q, bs := w^('"'*lsbs), w^('\\'*lsbs)
		// The lowest byte flagged is exact: a false flag needs a borrow
		// from a true one below it.
		if m := ((q-lsbs)&^q | (bs-lsbs)&^bs | (w - ' '*lsbs) | w) & msbs; m != 0 {
			j := i + bits.TrailingZeros64(m)/8
			return j, data[j] == '"'
		}
	}
	return i, false
}

// arrayField decodes a slice value over *backing, which stands in for the
// slice's backing array as encoding/json reuses it: element i decodes over
// (*backing)[i], entries past its end are zero, and null or [] drop it. It
// returns the slice's length, or -1 for null (a nil slice).
func arrayField[T any](d *jsonDecoder, backing *[]T, elem func(*T) error) (int, error) {
	switch d.ws() {
	case 'n':
		*backing = (*backing)[:0]
		return -1, d.literal("null")
	case '[':
	default:
		return 0, d.fail("expected an array")
	}
	d.pos++
	if d.ws() == ']' {
		d.pos++
		*backing = (*backing)[:0]
		return 0, nil
	}
	for n := 0; ; {
		if n == len(*backing) {
			var zero T
			*backing = append(*backing, zero)
		}
		if err := elem(&(*backing)[n]); err != nil {
			return 0, err
		}
		n++
		if more, err := d.more(']'); err != nil || !more {
			return n, err
		}
	}
}

// tuple decodes a five-tuple object over t's current value.
func (d *jsonDecoder) tuple(t *packet.FiveTuple) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.fail("tuple is not a JSON object")
	}
	d.pos++
	if d.ws() == '}' {
		d.pos++
		return nil
	}
	for next := 0; ; {
		f, err := d.key(tupleFields, next)
		if err != nil {
			return err
		}
		next = f + 1
		switch f {
		case fieldSrcIP:
			err = uintField(d, &t.SrcIP)
		case fieldDstIP:
			err = uintField(d, &t.DstIP)
		case fieldSrcPort:
			err = uintField(d, &t.SrcPort)
		case fieldDstPort:
			err = uintField(d, &t.DstPort)
		case fieldProto:
			err = uintField(d, &t.Proto)
		default:
			err = d.skip(tupleDepth)
		}
		if err != nil {
			return err
		}
		if more, err := d.more('}'); err != nil || !more {
			return err
		}
	}
}

// key reads an object key and its colon and returns the index of the
// field it selects, or -1. A key selects the field whose name it equals
// under Unicode case folding, as in encoding/json. next is the field
// json.Marshal writes next: its exact token is tried first.
func (d *jsonDecoder) key(f *jsonFields, next int) (int, error) {
	if d.ws() == '"' && next < len(f.tokens) {
		if tok := f.tokens[next]; len(d.data)-d.pos >= len(tok) && string(d.data[d.pos:d.pos+len(tok)]) == tok {
			d.pos += len(tok)
			return next, nil
		}
	}
	start, end, plain, err := d.keyToken()
	if err != nil {
		return 0, err
	}
	key := d.data[start:end]
	if !plain {
		s, err := unquote(d.data[start-1 : end+1])
		if err != nil {
			return 0, err
		}
		key = []byte(s)
	}
	for i, name := range f.names {
		if bytes.EqualFold(key, []byte(name)) {
			return i, nil
		}
	}
	return -1, nil
}

// keyToken scans an object key and its colon; see str.
func (d *jsonDecoder) keyToken() (start, end int, plain bool, err error) {
	if d.ws() != '"' {
		return 0, 0, false, d.fail("expected a string key")
	}
	if start, end, plain, err = d.str(); err != nil {
		return 0, 0, false, err
	}
	if d.ws() != ':' {
		return 0, 0, false, d.fail("expected ':' after object key")
	}
	d.pos++
	return start, end, plain, nil
}

// stringField decodes a string or null into *s; null leaves it as it is.
func (d *jsonDecoder) stringField(s *string) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.fail("expected a string")
	}
	start, end, plain, err := d.str()
	if err != nil {
		return err
	}
	if plain {
		*s = d.intern(d.data[start:end])
		return nil
	}
	u, err := unquote(d.data[start-1 : end+1])
	if err != nil {
		return err
	}
	*s = d.intern([]byte(u))
	return nil
}

// intern returns the body's one copy of the string b spells.
func (d *jsonDecoder) intern(b []byte) string {
	slot := &d.recent[nameHash(b)>>(64-recentBits)]
	if *slot == string(b) {
		return *slot
	}
	s, ok := d.names[string(b)]
	if !ok {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		s = string(b)
		d.names[s] = s
	}
	*slot = s
	return s
}

// recentBits sizes jsonDecoder.recent: 256 slots keep a deployment's
// component and queue names apart.
const recentBits = 8

// nameHash hashes b eight bytes at a time; its top recentBits bits pick a
// slot of jsonDecoder.recent.
func nameHash(b []byte) uint64 {
	const prime = 0x9E3779B97F4A7C15
	h := uint64(len(b)) * prime
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
	}
	switch n := len(b); {
	case n >= 4:
		h = (h ^ uint64(binary.LittleEndian.Uint32(b)) ^ uint64(binary.LittleEndian.Uint32(b[n-4:]))<<32) * prime
	case n > 0:
		h = (h ^ uint64(b[0]) ^ uint64(b[n/2])<<8 ^ uint64(b[n-1])<<16) * prime
	}
	return h
}

// unquote decodes one validated string token, escapes and invalid UTF-8
// included, with encoding/json's own rules.
func unquote(tok []byte) (string, error) {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return "", fmt.Errorf("collector: JSON records: %w", err)
	}
	return s, nil
}

// str scans the string token whose opening quote is at d.pos, validating
// it as JSON, and moves past it. The token's content is d.data[start:end];
// plain reports that it holds no escape and no byte outside ASCII, so it
// is its own value.
func (d *jsonDecoder) str() (start, end int, plain bool, err error) {
	data := d.data
	start, plain = d.pos+1, true
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return start, i, plain, nil
		case c == '\\':
			plain = false
			i++
			if i == len(data) {
				break // the loop ends too: unterminated
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(data) || !isHex(data[i+1]) || !isHex(data[i+2]) || !isHex(data[i+3]) || !isHex(data[i+4]) {
					d.pos = i
					return 0, 0, false, d.fail("invalid \\u escape")
				}
				i += 4
			default:
				d.pos = i
				return 0, 0, false, d.fail("invalid escape in string")
			}
		case c < 0x20:
			d.pos = i
			return 0, 0, false, d.fail("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.pos = len(data)
	return 0, 0, false, d.fail("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// uintField decodes an unsigned integer into *p, or null, which leaves *p
// as it is. A sign fails, as strconv.ParseUint does for encoding/json, and
// so does a value *p cannot hold.
func uintField[T ~uint8 | ~uint16 | ~uint32](d *jsonDecoder, p *T) error {
	null, neg, mag, err := d.integer()
	if err != nil || null {
		return err
	}
	if neg || mag > uint64(^T(0)) {
		return d.fail("number out of range for %T", *p)
	}
	*p = T(mag)
	return nil
}

// intField decodes a signed 64-bit integer into *p, or null, which leaves
// *p as it is.
func intField[T ~int64](d *jsonDecoder, p *T) error {
	null, neg, mag, err := d.integer()
	switch {
	case err != nil || null:
		return err
	case !neg && mag <= math.MaxInt64:
		*p = T(mag)
	case neg && mag <= 1<<63:
		*p = T(-mag)
	default:
		return d.fail("number out of range for %T", *p)
	}
	return nil
}

// integer consumes null, or a number token that must be an integer and
// returns its sign and magnitude. A fraction, an exponent or a magnitude
// beyond uint64 fails; so does any other value.
func (d *jsonDecoder) integer() (null, neg bool, mag uint64, err error) {
	switch c := d.ws(); {
	case c == 'n':
		return true, false, 0, d.literal("null")
	case c == '-':
		neg = true
	case !isDigit(c):
		return false, false, 0, d.fail("expected a number")
	}
	data, i := d.data, d.pos
	if neg {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && isDigit(data[i]):
		start := i
		for ; i < len(data) && isDigit(data[i]); i++ {
			mag = mag*10 + uint64(data[i]-'0')
		}
		// 19 digits always fit; mag wrapped if they do not.
		if digits := string(data[start:i]); len(digits) > 19 && (len(digits) > 20 || digits > "18446744073709551615") {
			d.pos = i
			return false, false, 0, d.fail("integer overflow")
		}
	default:
		d.pos = i
		return false, false, 0, d.fail("invalid number")
	}
	d.pos = i
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return false, false, 0, d.fail("number is not an integer")
	}
	return false, neg, mag, nil
}

// skip consumes and validates one value of any shape, nested in a
// container at depth.
func (d *jsonDecoder) skip(depth int) error {
	switch c := d.ws(); {
	case c == '"':
		_, _, _, err := d.str()
		return err
	case c == '-' || isDigit(c):
		return d.skipNumber()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '[' || c == '{':
		if depth++; depth > maxJSONDepth {
			return d.fail("exceeded max depth")
		}
		d.pos++
		closer := byte(']')
		if c == '{' {
			closer = '}'
		}
		if d.ws() == closer {
			d.pos++
			return nil
		}
		for {
			if c == '{' {
				if _, _, _, err := d.keyToken(); err != nil {
					return err
				}
			}
			if err := d.skip(depth); err != nil {
				return err
			}
			if more, err := d.more(closer); err != nil || !more {
				return err
			}
		}
	}
	return d.fail("expected a value")
}

// skipNumber consumes and validates a number token of any form.
func (d *jsonDecoder) skipNumber() error {
	data, i := d.data, d.pos
	if data[i] == '-' {
		i++
	}
	digits := func() bool {
		j := i
		for i < len(data) && isDigit(data[i]) {
			i++
		}
		return i > j
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case !digits():
		d.pos = i
		return d.fail("invalid number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			d.pos = i
			return d.fail("invalid number")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return d.fail("invalid number")
		}
	}
	d.pos = i
	return nil
}

package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// unmarshalRecords is DecodeJSON's reference: json.Unmarshal, then the
// same Dir check the MST2 decoder applies.
func unmarshalRecords(data []byte) ([]BatchRecord, error) {
	var recs []BatchRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, err
	}
	for i := range recs {
		if recs[i].Dir > DirDeliver {
			return nil, fmt.Errorf("record %d: invalid Dir %d", i, recs[i].Dir)
		}
	}
	return recs, nil
}

// checkJSONParity holds DecodeJSON to its reference on one input: both
// fail, or both succeed with deeply equal records.
func checkJSONParity(t *testing.T, data []byte) ([]BatchRecord, error) {
	t.Helper()
	got, err := DecodeJSON(data)
	want, werr := unmarshalRecords(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("DecodeJSON error %v, reference error %v, on %s", err, werr, clip(data))
	}
	if err != nil {
		if got != nil {
			t.Fatalf("DecodeJSON returned %d records with its error on %s", len(got), clip(data))
		}
		return nil, err
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeJSON differs from json.Unmarshal on %s:\n got %+v\nwant %+v", clip(data), got, want)
	}
	return got, nil
}

func clip(data []byte) string {
	if len(data) > 200 {
		return fmt.Sprintf("%q... (%d bytes)", data[:200], len(data))
	}
	return fmt.Sprintf("%q", data)
}

// evalTrace simulates the 16-NF evaluation topology at 1.2 Mpps for dur
// and returns its records.
func evalTrace(seed int64, dur simtime.Duration) []BatchRecord {
	col := New(Config{})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: seed})
	mix := traffic.NewMix(traffic.MixConfig{Flows: 1024, Seed: seed + 1})
	topo.Sim.LoadSchedule(traffic.Generate(mix, traffic.ScheduleConfig{
		Rate: simtime.MPPS(1.2), Duration: dur, Seed: seed + 2,
	}))
	topo.Sim.Run(simtime.Time(dur + 5*simtime.Millisecond))
	return col.Trace(MetaOf(topo.Sim)).Records
}

// jsonBodies cuts recs into bodies of n records each (a short last body
// dropped) and marshals them as a client would.
func jsonBodies(t testing.TB, recs []BatchRecord, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i+n <= len(recs); i += n {
		b, err := json.Marshal(recs[i : i+n])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// edgeRecords covers every record shape json.Marshal can produce: every
// Dir, nil and empty slices, an empty Comp and an unrelated Queue.
func edgeRecords() []BatchRecord {
	recs, _ := slabBody(60)
	recs[1].IPIDs = []uint16{}
	recs[2].IPIDs = nil
	recs[4].Tuples = nil
	recs[5].Tuples = []packet.FiveTuple{}
	recs[6].IPIDs, recs[6].Tuples = nil, []packet.FiveTuple{{SrcIP: 1}}
	recs[7].Comp, recs[7].Queue = "", "elsewhere.in"
	recs[8].At = -1 << 63
	recs[9].At = 1<<63 - 1
	return recs
}

// jsonEdgeCase is one input and what json.Unmarshal (plus the Dir check)
// makes of it.
type jsonEdgeCase struct {
	name string
	body string
	ok   bool
}

// jsonEdgeCases is a table of inputs exercising each rule of the parity
// contract, then the handover cases.
var jsonEdgeCases = append([]jsonEdgeCase{
	{"whitespace everywhere", " \t\n[ {\r\n\"Comp\" : \"a\" , \"Dir\" :\t1 } ,null , {\n} ]\n ", true},
	{"keys in any order", `[{"Dir":2,"Tuples":[{"Proto":6,"SrcIP":1}],"IPIDs":[5],"At":7,"Queue":"","Comp":"x"}]`, true},
	{"duplicate keys, last wins", `[{"Comp":"a","Comp":"b","At":1,"At":2,"Dir":0,"Dir":2,"Tuples":[{"Proto":1,"Proto":17}]}]`, true},
	{"null keeps a scalar", `[{"Comp":"a","Comp":null,"At":5,"At":null,"Dir":1,"Dir":null,"Tuples":[{"SrcIP":3,"SrcIP":null}]}]`, true},
	{"keys case-insensitive", `[{"comp":"a","QUEUE":"q","at":3,"ipids":[1],"tUpLeS":[{"srcip":1,"DSTIP":2,"srcPort":3,"dstport":4,"PROTO":5}],"dir":2}]`, true},
	{"keys Unicode-folded", `[{"IPIDſ":[1],"Tupleſ":[{"ſrcIP":9,"ſrcPort":8}],"Dir":2}]`, true},
	{"Kelvin sign matches no key", `[{"Komp":"a","Comp":"b"}]`, true},
	{"escaped keys", `[{"\u0043omp":"a","Q\u0075eue":"b","\u0041t":4}]`, true},
	{"empty key", `[{"":1}]`, true},
	{"unknown keys skipped", `[{"x":{"y":[1,-2.5e3,0.5E+2,1e-2,true,false,null,"s\n\u00e9",{}],"z":[]},"Comp":"a","Tuples":[{"z":[{"q":[[]]}],"Proto":1}],"Dir":2}]`, true},
	{"unknown key, trailing comma", `[{"x":[1,]}]`, false},
	{"unknown key, leading zero", `[{"x":01}]`, false},
	{"unknown key, control character", "[{\"x\":\"a\x01\"}]", false},
	{"unknown key, bad literal", `[{"x":tru}]`, false},
	{"unknown key, bad escape", `[{"x":"\q"}]`, false},
	{"unknown key, short unicode escape", `[{"x":"\u12"}]`, false},
	{"unknown key, bare fraction point", `[{"x":1.}]`, false},
	{"unknown key, bare minus", `[{"x":-}]`, false},
	{"unknown key, bare exponent", `[{"x":1e}]`, false},
	{"unknown key, signed bare exponent", `[{"x":1e+}]`, false},
	{"unknown key, plus sign", `[{"x":+1}]`, false},
	{"unknown key, leading point", `[{"x":.5}]`, false},
	{"unknown key in tuple, bad value", `[{"Tuples":[{"x":[}]}]`, false},
	{"unknown key, non-string key inside", `[{"x":{1:2}}]`, false},
	{"null everywhere", `[{"IPIDs":null,"Tuples":null,"Comp":null,"Queue":null,"At":null,"Dir":null}]`, true},
	{"null body", `null`, true},
	{"null body with space", " null\n", true},
	{"null body, trailing data", `null x`, false},
	{"null records", `[null,{"Dir":1},null]`, true},
	{"empty slices", `[{"IPIDs":[],"Tuples":[]}]`, true},
	{"empty array", `[]`, true},
	{"empty array with space", "[ \n ]", true},
	{"null slice elements", `[{"IPIDs":[null,3,null],"Tuples":[null,{"SrcIP":1}]}]`, true},
	{"duplicate IPIDs reuse the backing array", `[{"IPIDs":[1,2,3],"IPIDs":[null,null]}]`, true},
	{"duplicate IPIDs grow past the old length", `[{"IPIDs":[1,2],"IPIDs":[null],"IPIDs":[null,null,null]}]`, true},
	{"duplicate Tuples merge into old elements", `[{"Tuples":[{"SrcIP":1,"Proto":6},{"DstIP":2}],"Tuples":[{"DstPort":80}],"Tuples":[null,null]}]`, true},
	{"empty array drops the backing", `[{"IPIDs":[1,2],"IPIDs":[],"IPIDs":[null]}]`, true},
	{"null drops the backing", `[{"IPIDs":[7],"IPIDs":null,"IPIDs":[null]},{"Tuples":[{"SrcIP":1}],"Tuples":null,"Tuples":[null]}]`, true},
	{"fresh backing per record", `[{"IPIDs":[1,2,3]},{"IPIDs":[null,null]}]`, true},
	{"string escapes", `[{"Comp":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00"}]`, true},
	{"lone surrogate", `[{"Comp":"\ud800x","Queue":"\udc00"}]`, true},
	{"surrogate then plain escape", `[{"Comp":"\ud800\u0041"}]`, true},
	{"invalid UTF-8 in a value", "[{\"Comp\":\"a\xff\xfeb\",\"Queue\":\"\xc3\"}]", true},
	{"invalid UTF-8 in a key", "[{\"Co\xffmp\":1,\"Comp\":\"x\"}]", true},
	{"non-ASCII value", `[{"Comp":"fw-é","Queue":"fw-é"}]`, true},
	{"At minimum", `[{"At":-9223372036854775808}]`, true},
	{"At below minimum", `[{"At":-9223372036854775809}]`, false},
	{"At above maximum", `[{"At":9223372036854775808}]`, false},
	{"At beyond uint64", `[{"At":99999999999999999999999}]`, false},
	{"At negative zero", `[{"At":-0}]`, true},
	{"At fraction", `[{"At":1.0}]`, false},
	{"At exponent", `[{"At":1e3}]`, false},
	{"At capital exponent", `[{"At":1E3}]`, false},
	{"At leading zero", `[{"At":01}]`, false},
	{"At as string", `[{"At":"5"}]`, false},
	{"At as bool", `[{"At":true}]`, false},
	{"At as object", `[{"At":{}}]`, false},
	{"Dir negative zero", `[{"Dir":-0}]`, false},
	{"Dir overflow", `[{"Dir":256}]`, false},
	{"IPID maximum", `[{"IPIDs":[65535,0]}]`, true},
	{"IPID overflow", `[{"IPIDs":[65536]}]`, false},
	{"IPID negative", `[{"IPIDs":[-1]}]`, false},
	{"IPID fraction", `[{"IPIDs":[1.5]}]`, false},
	{"tuple maxima", `[{"Tuples":[{"SrcIP":4294967295,"DstIP":0,"SrcPort":65535,"DstPort":65535,"Proto":255}]}]`, true},
	{"SrcIP overflow", `[{"Tuples":[{"SrcIP":4294967296}]}]`, false},
	{"Proto overflow", `[{"Tuples":[{"Proto":256}]}]`, false},
	{"DstPort negative", `[{"Tuples":[{"DstPort":-1}]}]`, false},
	{"Dir 3", `[{"Dir":3}]`, false},
	{"Dir 255", `[{"Comp":"a"},{"Dir":255}]`, false},
	{"Dir 3 then 1", `[{"Dir":3,"Dir":1}]`, true},
	{"trailing data", `[] x`, false},
	{"trailing bracket", `[]]`, false},
	{"two arrays", `[][]`, false},
	{"trailing NUL", "[]\x00", false},
	{"trailing comma", `[],`, false},
	{"body is an object", `{}`, false},
	{"body is a number", `1`, false},
	{"body is a string", `"x"`, false},
	{"body is a bool", `true`, false},
	{"record is a number", `[1]`, false},
	{"record is an array", `[[]]`, false},
	{"record is a string", `["x"]`, false},
	{"IPIDs is an object", `[{"IPIDs":{}}]`, false},
	{"IPIDs is base64", `[{"IPIDs":"AQI="}]`, false},
	{"IPIDs nested", `[{"IPIDs":[[1]]}]`, false},
	{"Tuples element a number", `[{"Tuples":[1]}]`, false},
	{"Tuples is an object", `[{"Tuples":{}}]`, false},
	{"Comp is a number", `[{"Comp":1}]`, false},
	{"Comp is an array", `[{"Comp":["a"]}]`, false},
	{"empty input", ``, false},
	{"only space", ` `, false},
	{"open array", `[`, false},
	{"open record", `[{`, false},
	{"key without value", `[{"Comp"}]`, false},
	{"key with colon, no value", `[{"Comp":}]`, false},
	{"lone comma in record", `[{,}]`, false},
	{"trailing comma in record", `[{"Comp":"a",}]`, false},
	{"lone comma in array", `[,]`, false},
	{"trailing comma in array", `[{},]`, false},
	{"missing comma", `[{} {}]`, false},
	{"unclosed record", `[{}`, false},
	{"unterminated string", `[{"Comp":"a`, false},
	{"unterminated key", `[{"Co`, false},
	{"byte order mark", "\ufeff[]", false},
	{"form feed is not space", "[\f]", false},
	{"non-string key", `[{1:2}]`, false},
	{"single-quoted string", `[{"Comp":'a'}]`, false},
	{"nullx", `[nullx]`, false},
	{"truncated null", `[nul]`, false},
}, handoverCases()...)

// field is one key and its value as JSON text.
type field struct{ key, val string }

func object(fields []field) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"` + f.key + `":` + f.val)
	}
	b.WriteByte('}')
	return b.String()
}

// marshalledTupleFields and marshalledRecordFields are a record with every
// field set, key by key, as json.Marshal writes it: the straight pass reads
// every token of its layout.
var (
	marshalledTupleFields = []field{
		{"SrcIP", "1"}, {"DstIP", "2"}, {"SrcPort", "3"}, {"DstPort", "4"}, {"Proto", "6"},
	}
	marshalledRecordFields = []field{
		{"Comp", `"fw1"`}, {"Queue", `"fw2.in"`}, {"At", "1200"}, {"IPIDs", "[7,9]"},
		{"Tuples", "[" + object(marshalledTupleFields) + "]"}, {"Dir", "1"},
	}
)

// handoverCases leave DecodeJSON's straight pass at each token of
// json.Marshal's record layout, or keep it to a string or number boundary.
// Each body is the changed record between two marshalled ones, so the pass
// must also pick up again after the general loop read a record.
func handoverCases() []jsonEdgeCase {
	rec := object(marshalledRecordFields)
	var out []jsonEdgeCase
	add := func(name, variant string, ok bool) {
		out = append(out, jsonEdgeCase{"handover: " + name, "[" + rec + "," + variant + "," + rec + "]", ok})
	}
	// with returns fields with field i replaced by fs, or dropped when fs
	// is empty.
	with := func(fields []field, i int, fs ...field) []field {
		return slices.Concat(fields[:i], fs, fields[i+1:])
	}
	recordWith := func(i int, val string) string {
		return object(with(marshalledRecordFields, i, field{marshalledRecordFields[i].key, val}))
	}
	inTuple := func(fields []field) string { return recordWith(fieldTuples, "["+object(fields)+"]") }

	// Each key of a record and of a tuple out of place.
	alt := map[string]string{
		"Comp": `"b"`, "Queue": `"q.in"`, "At": "-5", "IPIDs": "[3]", "Tuples": "[null]", "Dir": "2",
		"SrcIP": "9", "DstIP": "8", "SrcPort": "7", "DstPort": "6", "Proto": "17",
	}
	for _, obj := range []struct {
		fields []field
		render func([]field) string
	}{{marshalledRecordFields, object}, {marshalledTupleFields, inTuple}} {
		for i, f := range obj.fields {
			add(f.key+" key lower-cased", obj.render(with(obj.fields, i, field{strings.ToLower(f.key), f.val})), true)
			add(f.key+" key escaped", obj.render(with(obj.fields, i, field{fmt.Sprintf(`\u%04x`, f.key[0]) + f.key[1:], f.val})), true)
			add("unknown key before "+f.key, obj.render(with(obj.fields, i, field{"x", `[1,{"y":null}]`}, f)), true)
			add(f.key+" key duplicated", obj.render(with(obj.fields, i, f, field{f.key, alt[f.key]})), true)
			add(f.key+" key missing", obj.render(with(obj.fields, i)), true)
			add(f.key+" null", obj.render(with(obj.fields, i, field{f.key, "null"})), true)
			if i+1 < len(obj.fields) {
				swapped := slices.Clone(obj.fields)
				swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
				add(f.key+" key after the next", obj.render(swapped), true)
			}
		}
	}

	// Names that end at, before and past a word of the eight-byte scan, and
	// names the pass hands over.
	for _, name := range []struct {
		name, val string
		ok        bool
	}{
		{"0 bytes", `""`, true},
		{"7 bytes", `"fw1.in7"`, true},
		{"8 bytes", `"nat10.in"`, true},
		{"9 bytes", `"nat10.in9"`, true},
		{"15 bytes", `"abcdefghijklmno"`, true},
		{"16 bytes", `"abcdefghijklmnop"`, true},
		{"17 bytes", `"abcdefghijklmnopq"`, true},
		{"escaped at byte 0", `"\u0066w1"`, true},
		{"escaped at byte 8", `"nat10.in\n"`, true},
		{"escaped quote", `"a\"b"`, true},
		{"non-ASCII at byte 0", `"éfw"`, true},
		{"non-ASCII at byte 9", `"nat10.in9é"`, true},
		{"invalid UTF-8", "\"fw\xff1\"", true},
		{"control character", "\"fw\x011\"", false},
		{"DEL", "\"fw\x7f\"", true},
		{"unterminated at byte 8", `"nat10.in`, false},
	} {
		add("Comp of "+name.name, recordWith(fieldComp, name.val), name.ok)
		add("Queue of "+name.name, recordWith(fieldQueue, name.val), name.ok)
	}

	// Numbers in every form, at every integer field.
	type number struct {
		val string
		ok  bool
	}
	forms := func(max, over string, signed bool) []number {
		return []number{
			{"0", true}, {max, true}, {over, false}, {"-0", signed}, {"-1", signed},
			{"00", false}, {"01", false}, {"1.5", false}, {"1.0", false}, {"1e2", false}, {"1E2", false},
			{"+1", false}, {"-", false}, {"99999999999999999999", false}, {"123456789012345678901", false},
		}
	}
	addNumbers := func(key string, forms []number, at func(string) string) {
		for _, form := range forms {
			add(key+" "+form.val, at(form.val), form.ok)
		}
	}
	addNumbers("At", append(forms("9223372036854775807", "9223372036854775808", true),
		number{"-9223372036854775808", true}, number{"-9223372036854775809", false},
		number{"1000000000000000000", true}, number{"10000000000000000000", false}),
		func(v string) string { return recordWith(fieldAt, v) })
	addNumbers("first IPID", forms("65535", "65536", false), func(v string) string { return recordWith(fieldIPIDs, "["+v+",9]") })
	addNumbers("last IPID", forms("65535", "65536", false), func(v string) string { return recordWith(fieldIPIDs, "[7,"+v+"]") })
	addNumbers("Dir", append(forms("2", "3", false), number{"255", false}, number{"256", false}),
		func(v string) string { return recordWith(fieldDir, v) })
	for i, f := range marshalledTupleFields {
		max, over := "65535", "65536"
		switch i {
		case fieldSrcIP, fieldDstIP:
			max, over = "4294967295", "4294967296"
		case fieldProto:
			max, over = "255", "256"
		}
		addNumbers(f.key, forms(max, over, false), func(v string) string {
			return inTuple(with(marshalledTupleFields, i, field{f.key, v}))
		})
	}

	// Arrays in every form.
	for _, a := range []struct {
		field int
		val   string
		ok    bool
	}{
		{fieldIPIDs, "null", true}, {fieldIPIDs, "[]", true}, {fieldIPIDs, "[null]", true}, {fieldIPIDs, "[7,null]", true},
		{fieldTuples, "null", true}, {fieldTuples, "[]", true}, {fieldTuples, "[null]", true}, {fieldTuples, "[{},{}]", true},
		{fieldTuples, "[" + object(marshalledTupleFields) + ",null]", true},
		{fieldIPIDs, "[7,]", false}, {fieldIPIDs, "[,7]", false}, {fieldIPIDs, "[7 9]", false},
		{fieldIPIDs, "{}", false}, {fieldIPIDs, `"7"`, false}, {fieldIPIDs, "nul", false},
		{fieldTuples, "[{}", false}, {fieldTuples, "[1]", false}, {fieldTuples, "{}", false}, {fieldTuples, "nulll", false},
	} {
		add(marshalledRecordFields[a.field].key+" "+a.val, recordWith(a.field, a.val), a.ok)
	}

	// Whitespace between any two tokens, and the body cut at every byte.
	spaces := []string{" ", "\t", "\n", "\r", " \n\t "}
	word := func(c byte) bool { return c == '-' || c == '.' || isDigit(c) || 'a' <= c && c <= 'z' }
	inString := false
	for i := 0; i <= len(rec); i++ {
		out = append(out, jsonEdgeCase{fmt.Sprintf("handover: body cut at byte %d", i), "[" + rec + "," + rec[:i], false})
		if !inString && (i == 0 || i == len(rec) || !word(rec[i-1]) || !word(rec[i])) {
			add(fmt.Sprintf("space at byte %d", i), rec[:i]+spaces[i%len(spaces)]+rec[i:], true)
		}
		if i < len(rec) && rec[i] == '"' {
			inString = !inString
		}
	}
	return out
}

// TestDecodeJSONMatchesUnmarshal: DecodeJSON and json.Unmarshal agree on
// marshalled traces of every record shape — one record and 2000 — and on
// every edge case of the parity contract.
func TestDecodeJSONMatchesUnmarshal(t *testing.T) {
	eval := evalTrace(3, 4*simtime.Millisecond)
	edge := edgeRecords()
	var bodies [][]byte
	for _, n := range []int{1, 2000} {
		bodies = append(bodies, jsonBodies(t, eval, n)[:2]...)
	}
	bodies = append(bodies, jsonBodies(t, edge, 1)...)
	bodies = append(bodies, jsonBodies(t, edge, len(edge))...)
	for _, body := range bodies {
		recs, err := checkJSONParity(t, body)
		if err != nil {
			t.Fatalf("marshalled records do not decode: %v", err)
		}
		for i := range recs {
			if cap(recs[i].IPIDs) != len(recs[i].IPIDs) || cap(recs[i].Tuples) != len(recs[i].Tuples) {
				t.Fatalf("record %d: payload slices carry spare capacity into the shared chunk", i)
			}
		}
	}

	for _, tc := range jsonEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := checkJSONParity(t, []byte(tc.body)); (err == nil) != tc.ok {
				t.Fatalf("accepted=%v, want %v (err %v)", err == nil, tc.ok, err)
			}
		})
	}

	// encoding/json's nesting limit: 10000 open containers, the record
	// array and object included.
	for _, tc := range []struct {
		levels int
		ok     bool
	}{{9998, true}, {9999, false}} {
		body := `[{"x":` + strings.Repeat("[", tc.levels) + strings.Repeat("]", tc.levels) + `}]`
		if _, err := checkJSONParity(t, []byte(body)); (err == nil) != tc.ok {
			t.Fatalf("%d nested arrays: accepted=%v, want %v", tc.levels, err == nil, tc.ok)
		}
	}
}

// TestDecodeJSONInternsNames: equal Comp and Queue strings of one body
// share one allocation.
func TestDecodeJSONInternsNames(t *testing.T) {
	recs, err := DecodeJSON([]byte(`[{"Comp":"fw1","Queue":"fw1"},{"Comp":"fw1","Queue":"f\u0077\u0031"}]`))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{recs[0].Queue, recs[1].Comp, recs[1].Queue} {
		if s != recs[0].Comp || unsafe.StringData(s) != unsafe.StringData(recs[0].Comp) {
			t.Fatalf("%q is not interned with %q", s, recs[0].Comp)
		}
	}
}

// TestDecodeJSONAllocsPerRecord pins the slab and the interning: decoding
// a 2000-record body of the 16-NF trace allocates a small fraction of one
// object per record.
func TestDecodeJSONAllocsPerRecord(t *testing.T) {
	bodies := jsonBodies(t, evalTrace(2, 4*simtime.Millisecond), 2000)
	for i, body := range bodies {
		avg := testing.AllocsPerRun(10, func() {
			if _, err := DecodeJSON(body); err != nil {
				t.Fatalf("body %d: %v", i, err)
			}
		})
		if per := avg / 2000; per > 0.2 {
			t.Errorf("body %d: DecodeJSON allocates %.3f objects per record (%.0f over 2000), budget 0.2", i, per, avg)
		}
	}
}

// FuzzDecodeJSON holds DecodeJSON to json.Unmarshal on adversarial input:
// both fail or both decode to deeply equal records, and no body decodes to
// more IPIDs and tuples than half its bytes.
func FuzzDecodeJSON(f *testing.F) {
	recs := evalTrace(3, 2*simtime.Millisecond)
	for _, n := range []int{1, 20} {
		for _, b := range jsonBodies(f, recs, n)[:3] {
			f.Add(b)
		}
	}
	for _, b := range jsonBodies(f, edgeRecords()[:12], 4) {
		f.Add(b)
	}
	for _, tc := range jsonEdgeCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := checkJSONParity(t, data)
		// Decoding into storage that still holds earlier records gives the
		// fresh decode; a null body, or an error, appends nothing.
		got, rerr := AppendDecodeJSON(staleRecords()[:0], data)
		if (rerr == nil) != (err == nil) {
			t.Fatalf("decode into reused storage: error %v, fresh decode error %v", rerr, err)
		}
		if recs == nil {
			if len(got) != 0 {
				t.Fatalf("decode into reused storage appended %d records where a fresh decode gave nil", len(got))
			}
		} else if !reflect.DeepEqual(got, recs) {
			t.Fatalf("decode into reused storage differs from a fresh decode on %s:\n got %+v\nwant %+v", clip(data), got, recs)
		}
		if err != nil {
			return
		}
		entries := 0
		for i := range recs {
			entries += len(recs[i].IPIDs) + len(recs[i].Tuples)
		}
		if entries > len(data)/2 {
			t.Fatalf("over-allocation: %d entries from %d bytes", entries, len(data))
		}
	})
}

// TestDecodeJSONStraightPass: the straight pass reads the whole of every
// record json.Marshal writes, of the 16-NF trace and of every record shape,
// into the record json.Unmarshal makes of it; so the general key loop runs
// only for input laid out otherwise.
func TestDecodeJSONStraightPass(t *testing.T) {
	for _, rec := range append(evalTrace(3, 2*simtime.Millisecond), edgeRecords()...) {
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		d := jsonDecoder{data: body}
		var got, want BatchRecord
		if !d.marshalled(&got) || d.pos != len(body) {
			t.Fatalf("the straight pass left %s at offset %d", body, d.pos)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the straight pass read %s as %+v, want %+v", body, got, want)
		}
	}
}

// generalLayout re-encodes a marshalled body as a client other than
// json.Marshal might: indented, with lower-cased keys. No record of it
// takes DecodeJSON's straight pass.
func generalLayout(t testing.TB, body []byte) []byte {
	var recs []BatchRecord
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Concat(recordFields.names, tupleFields.names) {
		out = bytes.ReplaceAll(out, []byte(`"`+name+`":`), []byte(`"`+strings.ToLower(name)+`":`))
	}
	return out
}

// BenchmarkDecodeJSON compares json.Unmarshal with DecodeJSON on the same
// 2000-record bodies of the 16-NF trace, per record: decode on the bodies
// json.Marshal wrote, decode-general on the same records in generalLayout,
// which the general key loop reads. Both decode into one reused record
// slice (AppendDecodeJSON), as msserve decodes into a recycled chunk.
func BenchmarkDecodeJSON(b *testing.B) {
	bodies := jsonBodies(b, evalTrace(1, 6*simtime.Millisecond), 2000)
	general := make([][]byte, len(bodies))
	for i, body := range bodies {
		general[i] = generalLayout(b, body)
	}
	perRecord := func(b *testing.B, bodies [][]byte, decode func([]byte) error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				if err := decode(body); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N * len(bodies) * 2000)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
	}
	var dst []BatchRecord
	decode := func(body []byte) (err error) {
		dst, err = AppendDecodeJSON(dst[:0], body)
		return err
	}
	b.Run("unmarshal", func(b *testing.B) {
		perRecord(b, bodies, func(body []byte) error {
			var recs []BatchRecord
			return json.Unmarshal(body, &recs)
		})
	})
	b.Run("decode", func(b *testing.B) { perRecord(b, bodies, decode) })
	b.Run("decode-general", func(b *testing.B) { perRecord(b, general, decode) })
}

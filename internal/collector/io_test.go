package collector

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microscope/internal/packet"
	"microscope/internal/simtime"
)

func sampleTrace() *Trace {
	return &Trace{
		Meta: Meta{
			MaxBatch: 32,
			Components: []ComponentMeta{
				{Name: "source", Kind: "source"},
				{Name: "fw1", Kind: "fw", PeakRate: simtime.MPPS(0.5)},
				{Name: "vpn1", Kind: "vpn", PeakRate: simtime.MPPS(0.6), Egress: true},
			},
			Edges: []Edge{{From: "source", To: "fw1"}, {From: "fw1", To: "vpn1"}},
		},
		Records: []BatchRecord{
			{Comp: "source", Queue: "fw1.in", At: 100, Dir: DirWrite, IPIDs: []uint16{1, 2}},
			{Comp: "fw1", Queue: "fw1.in", At: 160, Dir: DirRead, IPIDs: []uint16{1, 2}},
			{Comp: "fw1", Queue: "vpn1.in", At: 200, Dir: DirWrite, IPIDs: []uint16{1, 2}},
			{Comp: "vpn1", Queue: "vpn1.in", At: 230, Dir: DirRead, IPIDs: []uint16{1, 2}},
			{Comp: "vpn1", At: 300, Dir: DirDeliver, IPIDs: []uint16{1, 2},
				Tuples: []packet.FiveTuple{tuple(1), tuple(2)}},
		},
	}
}

func TestWriteReadTraceRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	tr := sampleTrace()
	if err := WriteTrace(dir, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.MaxBatch != 32 || len(got.Meta.Components) != 3 || len(got.Meta.Edges) != 2 {
		t.Errorf("meta: %+v", got.Meta)
	}
	c := got.Meta.Component("fw1")
	if c == nil || c.Kind != "fw" || c.PeakRate != simtime.MPPS(0.5) {
		t.Errorf("fw1 meta: %+v", c)
	}
	if !got.Meta.Component("vpn1").Egress {
		t.Error("egress flag lost")
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("records: %d vs %d", len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		a, b := tr.Records[i], got.Records[i]
		if a.Comp != b.Comp || a.At != b.At || a.Dir != b.Dir || len(a.IPIDs) != len(b.IPIDs) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	if got.Records[4].Tuples[1] != tuple(2) {
		t.Error("tuples lost")
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing dir accepted")
	}
	// Corrupt meta.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(dir); err == nil {
		t.Error("corrupt meta accepted")
	}
	// Valid meta, missing records.
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte(`{"components":[{"name":"source"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(dir); err == nil {
		t.Error("missing records accepted")
	}
	// Corrupt records.
	if err := os.WriteFile(filepath.Join(dir, recordsFile), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(dir); err == nil {
		t.Error("corrupt records accepted")
	}
}

func TestWriteTraceCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deep", "nested", "trace")
	if err := WriteTrace(dir, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, recordsFile)); err != nil {
		t.Error("records file missing")
	}
}

// TestReadTraceRejectsBadMeta: meta.json is external input, held to the
// same checks as a spec's topology section. A repeated component or an
// edge to an undeclared one fails the read instead of reaching the store.
func TestReadTraceRejectsBadMeta(t *testing.T) {
	for _, c := range []struct {
		name, meta, want string
	}{
		{"duplicate component",
			`{"components":[{"name":"source","kind":"source"},{"name":"fw1","kind":"fw","peak_rate":1e6},{"name":"fw1","kind":"fw","peak_rate":1e6}],
			"edges":[{"from":"source","to":"fw1"}]}`,
			`components[2].name: duplicate component "fw1"`},
		{"edge to a ghost",
			`{"components":[{"name":"source","kind":"source"},{"name":"fw1","kind":"fw","peak_rate":1e6,"egress":true}],
			"edges":[{"from":"source","to":"fw1"},{"from":"fw1","to":"ghost"}]}`,
			`edges[1].to: unknown component "ghost"`},
		{"key from an older build",
			`{"components":[{"name":"source","kind":"source"},{"name":"fw1","kind":"fw","peak_pps":1e6}]}`,
			`unknown field "peak_pps"`},
	} {
		dir := filepath.Join(t.TempDir(), "trace")
		if err := WriteTrace(dir, sampleTrace()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, metaFile), []byte(c.meta), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadTrace(dir)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ReadTrace error = %v, want one naming %s", c.name, err, c.want)
		}
	}
}

// TestWriteTraceMetaIsMarshalled: meta.json is Meta's own JSON form, the
// one a spec's topology section uses.
func TestWriteTraceMetaIsMarshalled(t *testing.T) {
	dir := t.TempDir()
	tr := sampleTrace()
	if err := WriteTrace(dir, tr); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(&tr.Meta, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("meta.json =\n%s\nwant\n%s", got, want)
	}
	for _, key := range []string{`"peak_rate": 500000`, `"from": "source"`, `"max_batch": 32`, `"egress": true`} {
		if !bytes.Contains(got, []byte(key)) {
			t.Errorf("meta.json lacks %s:\n%s", key, got)
		}
	}
}

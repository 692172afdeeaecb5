package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Trace directory layout: deployment metadata as JSON next to the compact
// binary record stream, so a trace is portable between the collection host
// and wherever diagnosis runs.
const (
	metaFile    = "meta.json"
	recordsFile = "records.mst"
)

// WriteTrace persists a trace to a directory (created if missing).
func WriteTrace(dir string, tr *Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("collector: create trace dir: %w", err)
	}
	mb, err := json.MarshalIndent(&tr.Meta, "", "  ")
	if err != nil {
		return fmt.Errorf("collector: marshal meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), mb, 0o644); err != nil {
		return fmt.Errorf("collector: write meta: %w", err)
	}
	enc := NewEncoder()
	for i := range tr.Records {
		enc.Append(&tr.Records[i])
	}
	if err := os.WriteFile(filepath.Join(dir, recordsFile), enc.Bytes(), 0o644); err != nil {
		return fmt.Errorf("collector: write records: %w", err)
	}
	return nil
}

// ReadTrace loads a trace directory written by WriteTrace, its records
// decoded tolerantly (TraceFile.Decode).
func ReadTrace(dir string) (*Trace, error) {
	f, err := OpenTrace(dir)
	if err != nil {
		return nil, err
	}
	return f.Decode()
}

// TraceFile is a trace directory read but not decoded: its checked
// deployment metadata and its raw MST2 record stream, about two bytes a
// packet. A reader that goes over the frames itself (FrameReader) never
// holds the records as BatchRecords.
type TraceFile struct {
	Meta   Meta
	Stream []byte
}

// OpenTrace reads a trace directory written by WriteTrace without decoding
// its records.
func OpenTrace(dir string) (*TraceFile, error) {
	mb, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("collector: read meta: %w", err)
	}
	meta, err := parseMeta(mb)
	if err != nil {
		return nil, err
	}
	rb, err := os.ReadFile(filepath.Join(dir, recordsFile))
	if err != nil {
		return nil, fmt.Errorf("collector: read records: %w", err)
	}
	return &TraceFile{Meta: meta, Stream: rb}, nil
}

// Frames returns a reader over the record stream's frames.
func (f *TraceFile) Frames() (*FrameReader, error) {
	r, err := NewFrameReader(f.Stream)
	if err != nil {
		return nil, fmt.Errorf("collector: decode records: %w", err)
	}
	return r, nil
}

// Decode decodes the records into a Trace. The decode is tolerant: a
// damaged record stream still yields every intact record, with the loss
// accounted in the trace's Integrity so the diagnosis can qualify its
// confidence.
func (f *TraceFile) Decode() (*Trace, error) {
	recs, st, err := DecodeStream(f.Stream)
	if err != nil {
		return nil, fmt.Errorf("collector: decode records: %w", err)
	}
	return &Trace{Meta: f.Meta, Records: recs, Integrity: st.Integrity()}, nil
}

// parseMeta decodes and checks a meta.json document. It is as strict as a
// spec's topology section: an unknown key (a meta.json from an older
// build, say) fails rather than reading as zero.
func parseMeta(b []byte) (Meta, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var m Meta
	if err := dec.Decode(&m); err != nil {
		return Meta{}, fmt.Errorf("collector: parse meta: %w", err)
	}
	if dec.More() {
		return Meta{}, errors.New("collector: parse meta: trailing data after meta document")
	}
	if bad := m.Check(); bad != nil {
		return Meta{}, fmt.Errorf("collector: invalid meta: %w", bad)
	}
	return m, nil
}

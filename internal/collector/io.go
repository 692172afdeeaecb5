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

// ReadTrace loads a trace directory written by WriteTrace.
func ReadTrace(dir string) (*Trace, error) {
	mb, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("collector: read meta: %w", err)
	}
	meta, err := parseMeta(mb)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Meta: meta}
	rb, err := os.ReadFile(filepath.Join(dir, recordsFile))
	if err != nil {
		return nil, fmt.Errorf("collector: read records: %w", err)
	}
	// Tolerant decode: a damaged record stream still yields every intact
	// record, with the loss accounted in the trace's Integrity so the
	// diagnosis can qualify its confidence.
	recs, st, err := DecodeStream(rb)
	if err != nil {
		return nil, fmt.Errorf("collector: decode records: %w", err)
	}
	tr.Records = recs
	tr.Integrity.DecodeSkipped = st.Skipped
	tr.Integrity.DecodeResyncs = st.Resyncs
	tr.Integrity.Resorted = st.Resorted
	return tr, nil
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

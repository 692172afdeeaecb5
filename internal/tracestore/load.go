package tracestore

import "microscope/internal/collector"

// Load makes the store of a trace directory written by collector.WriteTrace
// straight from its record stream: the same store as
// Build(collector.ReadTrace(dir)), without ever holding the records as
// BatchRecords. A stream out of time order is decoded, sorted and built
// like that instead.
func Load(dir string) (*Store, error) {
	f, err := collector.OpenTrace(dir)
	if err != nil {
		return nil, err
	}
	return buildFrames(f)
}

// buildFrames runs build's two passes over f's frames: the count pass reads
// the frame headers only, the fill pass decodes each frame into one reused
// record and looks its component and destination up again. No record
// array, IPID or tuple slab, or per-record CompID table is kept; two
// readers over one stream see the same frames.
func buildFrames(f *collector.TraceFile) (*Store, error) {
	fr, err := f.Frames()
	if err != nil {
		return nil, err
	}
	s, sc := &Store{}, &scratch{}
	tr := &collector.Trace{Meta: f.Meta}
	s.begin(tr, sc)
	var hdr collector.BatchRecord
	for {
		n, ok := fr.NextHeader(&hdr)
		if !ok {
			break
		}
		s.count(&hdr, n, sc)
	}
	st := fr.Stats()
	if st.Resorted > 0 {
		// Indexing needs record order to be time order.
		sorted, err := f.Decode()
		if err != nil {
			return nil, err
		}
		return Build(sorted), nil
	}
	tr.Integrity = st.Integrity()
	s.layout(sc)

	fr, _ = f.Frames() // cannot fail: the first reader took this header
	rec := make([]collector.BatchRecord, 1)
	var comp, dest [1]CompID
	for fr.Next(&rec[0]) {
		comp[0] = s.compID(rec[0].Comp)
		if rec[0].Dir == collector.DirWrite {
			dest[0] = s.queueID(rec[0].Queue)
		}
		s.fill(rec, comp[:], dest[:], sc)
	}
	s.reconstruct(sc)
	s.summarize(sc)
	return s, nil
}

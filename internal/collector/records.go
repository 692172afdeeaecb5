// Package collector implements Microscope's runtime information collection
// (paper §5): instrumentation of the NF receive and transmit paths that
// records, per batch, a timestamp, the batch size, and the IPID of each
// packet — plus full five-tuples only at the egress of the NF graph. A
// Collector keeps the records in chunks, their IPIDs and tuples on shared
// slabs, until Trace hands them over; the compact MST2 encoding (Encoder,
// AppendDecodeStream) keeps a stored or shipped trace near two bytes per
// packet.
//
// The collector deliberately observes nothing else: no packet IDs, no
// ground truth, no NF internals. Everything downstream (trace
// reconstruction, diagnosis) works from this record stream alone, exactly
// as the paper's offline component does.
package collector

import (
	"fmt"
	"strings"

	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// SourceName is the component name of the traffic source in trace records,
// matching nfsim.SourceName.
const SourceName = "source"

// inSuffix names a component's input queue: component "fw1" reads from
// queue "fw1.in". The simulator names its queues so (nfsim.newNF), and
// every reader of a trace maps queues and components through QueueOf and
// ConsumerOf.
const inSuffix = ".in"

// QueueOf returns the name of comp's input queue.
func QueueOf(comp string) string { return comp + inSuffix }

// ConsumerOf returns the component that reads queue.
func ConsumerOf(queue string) string { return strings.TrimSuffix(queue, inSuffix) }

// Dir is the direction of a batch operation relative to the component that
// performed it.
type Dir uint8

const (
	// DirRead is a batch dequeue from the component's input queue (the
	// instrumented DPDK receive function).
	DirRead Dir = iota
	// DirWrite is a batch enqueue onto a downstream queue (the
	// instrumented DPDK transmit function).
	DirWrite
	// DirDeliver is a batch leaving the NF graph at an egress NF; these
	// records also carry five-tuples.
	DirDeliver
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case DirRead:
		return "read"
	case DirWrite:
		return "write"
	case DirDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// BatchRecord is one instrumented batch operation.
type BatchRecord struct {
	// Comp is the component that performed the operation ("source" or
	// an NF name).
	Comp string
	// Queue is the queue operated on: the component's own input queue
	// for reads, the destination queue for writes, "" for delivers.
	Queue string
	// At is the batch timestamp.
	At simtime.Time
	// IPIDs holds one entry per packet, in batch order. len(IPIDs) is
	// the batch size.
	IPIDs []uint16
	// Tuples is populated only for DirDeliver records (the paper keeps
	// five-tuples only at the end of the NF graph).
	Tuples []packet.FiveTuple
	// Dir is the operation direction.
	Dir Dir
}

// Size returns the batch size.
func (r *BatchRecord) Size() int { return len(r.IPIDs) }

// Meta describes the deployment to the offline diagnosis: the component
// graph and per-NF peak rates. Operators know their topology and measure
// r_i by offline stress testing (§4.1 footnote); neither is runtime
// information. Its JSON form is both a trace directory's meta.json and a
// pipeline spec's topology section.
type Meta struct {
	// Components lists every component including the traffic source.
	Components []ComponentMeta `json:"components"`
	// Edges lists directed links: traffic flows From -> To.
	Edges []Edge `json:"edges,omitempty"`
	// MaxBatch is the DPDK receive batch limit (32).
	MaxBatch int `json:"max_batch,omitempty"`
}

// ComponentMeta describes one component.
type ComponentMeta struct {
	Name string `json:"name"`
	Kind string `json:"kind,omitempty"` // "source", "nat", "fw", ...
	// PeakRate is r_i, the offline-measured peak processing rate, in
	// packets per second. Zero for the source.
	PeakRate simtime.Rate `json:"peak_rate,omitempty"`
	// Egress marks NFs at the end of the graph (five-tuples recorded).
	Egress bool `json:"egress,omitempty"`
}

// Edge is a directed traffic link between components.
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// MetaError is one problem with a deployment description, at its JSON
// field path within the Meta (e.g. "components[1].name").
type MetaError struct {
	Path, Msg string
}

func (e MetaError) Error() string { return e.Path + ": " + e.Msg }

// MetaErrors is every problem Check found.
type MetaErrors []MetaError

func (es MetaErrors) Error() string {
	s := make([]string, len(es))
	for i, e := range es {
		s[i] = e.Error()
	}
	return strings.Join(s, "; ")
}

// Check returns every problem that keeps m from describing a deployment:
// no components, an empty or repeated name, an edge to or from an
// undeclared component, a negative rate or batch limit. Nil means usable.
func (m *Meta) Check() MetaErrors {
	var es MetaErrors
	add := func(path, format string, args ...any) {
		es = append(es, MetaError{Path: path, Msg: fmt.Sprintf(format, args...)})
	}
	if len(m.Components) == 0 {
		add("components", "must list at least one component")
	}
	names := make(map[string]bool, len(m.Components))
	for i, c := range m.Components {
		path := fmt.Sprintf("components[%d]", i)
		if c.Name == "" {
			add(path+".name", "must not be empty")
		} else if names[c.Name] {
			add(path+".name", "duplicate component %q", c.Name)
		}
		names[c.Name] = true
		if c.PeakRate < 0 {
			add(path+".peak_rate", "must be >= 0, got %g", c.PeakRate.PPS())
		}
	}
	for i, e := range m.Edges {
		path := fmt.Sprintf("edges[%d]", i)
		if !names[e.From] {
			add(path+".from", "unknown component %q", e.From)
		}
		if !names[e.To] {
			add(path+".to", "unknown component %q", e.To)
		}
	}
	if m.MaxBatch < 0 {
		add("max_batch", "must be >= 0, got %d", m.MaxBatch)
	}
	return es
}

// Clone deep-copies the description.
func (m *Meta) Clone() Meta {
	c := *m
	c.Components = append([]ComponentMeta(nil), m.Components...)
	c.Edges = append([]Edge(nil), m.Edges...)
	return c
}

// Upstreams returns the components that feed the named component.
func (m *Meta) Upstreams(name string) []string {
	var out []string
	for _, e := range m.Edges {
		if e.To == name {
			out = append(out, e.From)
		}
	}
	return out
}

// Downstreams returns the components the named component feeds.
func (m *Meta) Downstreams(name string) []string {
	var out []string
	for _, e := range m.Edges {
		if e.From == name {
			out = append(out, e.To)
		}
	}
	return out
}

// Component returns the metadata for name, or nil.
func (m *Meta) Component(name string) *ComponentMeta {
	for i := range m.Components {
		if m.Components[i].Name == name {
			return &m.Components[i]
		}
	}
	return nil
}

// Integrity accounts for what a trace is known to have lost between
// collection and analysis. A pristine trace is all zeros; consumers use it
// to qualify their confidence (degraded-mode diagnosis).
type Integrity struct {
	// DecodeSkipped is records lost to stream corruption during decode.
	DecodeSkipped int
	// DecodeResyncs is how often the decoder had to hunt for a frame
	// boundary.
	DecodeResyncs int
	// Resorted is records that arrived out of stream order and were
	// re-sorted by timestamp.
	Resorted int
	// DroppedRecords is records known to be lost before decode (ring
	// overruns, injected faults).
	DroppedRecords int
	// TruncatedRecords is records that lost part of their batch.
	TruncatedRecords int
}

// Damaged reports whether the trace is known to be incomplete.
func (g Integrity) Damaged() bool {
	return g.DecodeSkipped > 0 || g.DroppedRecords > 0 || g.TruncatedRecords > 0
}

// LossFrac estimates the fraction of records lost, given the surviving
// record count.
func (g Integrity) LossFrac(surviving int) float64 {
	lost := g.DecodeSkipped + g.DroppedRecords
	if lost == 0 || surviving+lost == 0 {
		return 0
	}
	return float64(lost) / float64(surviving+lost)
}

// Trace is a complete collected run: deployment metadata plus the
// time-ordered record stream.
type Trace struct {
	Meta    Meta
	Records []BatchRecord
	// Integrity records known damage (decode skips, dropped records);
	// zero-valued for pristine traces.
	Integrity Integrity
}

// RecordsOf returns the records of one component, preserving order.
func (t *Trace) RecordsOf(comp string) []BatchRecord {
	var out []BatchRecord
	for i := range t.Records {
		if t.Records[i].Comp == comp {
			out = append(out, t.Records[i])
		}
	}
	return out
}

// Packets returns the total number of per-packet entries across records of
// the given direction (a measure of collection volume).
func (t *Trace) Packets(dir Dir) int {
	n := 0
	for i := range t.Records {
		if t.Records[i].Dir == dir {
			n += len(t.Records[i].IPIDs)
		}
	}
	return n
}

package collector

import (
	"math"

	"microscope/internal/nfsim"
	"microscope/internal/obs"
	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// Config tunes the collector.
type Config struct {
	// Obs receives ingest volume counters (batches, packets, encoded
	// bytes). nil falls back to the process default registry.
	Obs *obs.Registry
}

// Collector implements nfsim.Hooks, keeping one BatchRecord per hook call
// for offline diagnosis.
//
// Per-packet critical-path cost is deliberately tiny: copy each packet's
// IPID (and, on delivery, its five-tuple) into the record. Nothing is
// encoded on the hook path; the compact codec runs when the records are
// dumped (WriteTrace), and Stats sizes that dump. The §6.2 overhead
// experiment charges NFs an equivalent per-packet cost
// (experiments.OverheadConfig.CollectorCost).
//
// Nothing is allocated per record either: records go into fixed-size
// chunks and their IPIDs and Tuples are carved from the collector's slab.
type Collector struct {
	// records is every record up to the last flush, at exact length;
	// chunks holds the records added since, the last chunk filling.
	records []BatchRecord
	chunks  [][]BatchRecord
	slab
	stats Stats
	// booked is how many encoded bytes obsBytes has been given.
	booked uint64

	// Observability handles, resolved once at New (nil = disabled).
	obsBatches *obs.Counter
	obsPackets *obs.Counter
	obsBytes   *obs.Counter
}

// Stats reports collection volume: the batches and packet entries
// recorded, and the MST2 size of the recorded stream's frames.
type Stats struct {
	Batches      uint64
	PacketsSeen  uint64
	BytesEncoded uint64
}

// BytesPerPacket returns the encoded bytes per collected packet entry.
func (s Stats) BytesPerPacket() float64 {
	if s.PacketsSeen == 0 {
		return 0
	}
	return float64(s.BytesEncoded) / float64(s.PacketsSeen)
}

// New creates a Collector.
func New(cfg Config) *Collector {
	c := &Collector{}
	if reg := obs.Or(cfg.Obs); reg != nil {
		c.obsBatches = reg.Counter("microscope_collector_batches_total")
		c.obsPackets = reg.Counter("microscope_collector_packets_total")
		c.obsBytes = reg.Counter("microscope_collector_bytes_total")
	}
	return c
}

// Stats returns collection counters. BytesEncoded comes from encoding the
// records collected so far.
func (c *Collector) Stats() Stats {
	c.flush()
	st := c.stats
	st.BytesEncoded = c.encodedBytes()
	return st
}

// flush moves the records added since the last flush onto c.records, in
// one allocation of exactly the new length.
func (c *Collector) flush() {
	if len(c.chunks) == 0 {
		return
	}
	n := len(c.records)
	for _, ch := range c.chunks {
		n += len(ch)
	}
	all := make([]BatchRecord, 0, n)
	all = append(all, c.records...)
	for _, ch := range c.chunks {
		all = append(all, ch...)
	}
	c.records = all
	clear(c.chunks)
	c.chunks = c.chunks[:0]
}

// encodedBytes is the size of the collected records' MST2 frames, the
// stream without its header.
func (c *Collector) encodedBytes() uint64 {
	enc := NewEncoder()
	for i := range c.records {
		enc.Append(&c.records[i])
	}
	return uint64(len(enc.Bytes()) - len(magic))
}

// Trace finalizes collection and returns the trace with the given
// deployment metadata attached. With a registry attached it books the
// encoded bytes not yet counted on microscope_collector_bytes_total.
func (c *Collector) Trace(meta Meta) *Trace {
	c.flush()
	//mslint:allow obssafe the branch guards an encode of every record
	if c.obsBytes != nil {
		n := c.encodedBytes()
		c.obsBytes.Add(int64(n - c.booked))
		c.booked = n
	}
	return &Trace{Meta: meta, Records: c.records}
}

// Records exposes the collected records so far (primarily for tests).
func (c *Collector) Records() []BatchRecord {
	c.flush()
	return c.records
}

// recordChunk is how many records one chunk holds.
const recordChunk = 1024

func (c *Collector) add(comp, queue string, dir Dir, at simtime.Time, pkts []*packet.Packet) {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == recordChunk {
		c.chunks = append(c.chunks, make([]BatchRecord, 0, recordChunk))
		last++
	}
	// The slab's slices are capacity-clipped, so an append to one
	// record's IPIDs or Tuples never writes into another's.
	rec := BatchRecord{
		Comp:  comp,
		Queue: queue,
		At:    at,
		Dir:   dir,
		IPIDs: c.ipidsOf(len(pkts), math.MaxInt),
	}
	for i, p := range pkts {
		rec.IPIDs[i] = p.IPID
	}
	if dir == DirDeliver {
		rec.Tuples = c.tuplesOf(len(pkts), math.MaxInt)
		for i, p := range pkts {
			rec.Tuples[i] = p.Flow
		}
	}
	c.stats.Batches++
	c.stats.PacketsSeen += uint64(len(pkts))
	c.obsBatches.Inc()
	c.obsPackets.Add(int64(len(pkts)))
	c.chunks[last] = append(c.chunks[last], rec)
}

// BatchRead implements nfsim.Hooks.
func (c *Collector) BatchRead(nf string, at simtime.Time, q *nfsim.Queue, pkts []*packet.Packet) {
	c.add(nf, q.Name(), DirRead, at, pkts)
}

// BatchWrite implements nfsim.Hooks.
func (c *Collector) BatchWrite(from string, at simtime.Time, q *nfsim.Queue, pkts []*packet.Packet) {
	c.add(from, q.Name(), DirWrite, at, pkts)
}

// Deliver implements nfsim.Hooks.
func (c *Collector) Deliver(nf string, at simtime.Time, pkts []*packet.Packet) {
	c.add(nf, "", DirDeliver, at, pkts)
}

// Drop implements nfsim.Hooks. The collector records nothing for drops:
// the paper's collector cannot observe a tail-drop on a downstream ring,
// and Microscope detects losses as packets whose records vanish.
func (c *Collector) Drop(string, simtime.Time, *nfsim.Queue, []*packet.Packet) {}

// MetaOf describes a simulated deployment as the simulator was wired: the
// source first, then every NF in AddNF order with its kind and peak rate;
// the source's edges first, then each NF's, in the order its Connect call
// named them; egress is an NF with no downstream. This is deployment
// knowledge (who connects to whom; offline-measured r_i), not runtime
// collection.
func MetaOf(sim *nfsim.Sim) Meta {
	m := Meta{MaxBatch: nfsim.DefaultMaxBatch}
	m.Components = append(m.Components, ComponentMeta{Name: SourceName, Kind: "source"})
	for _, to := range sim.Downstream(SourceName) {
		m.Edges = append(m.Edges, Edge{From: SourceName, To: to})
	}
	for _, name := range sim.NFs() {
		nf := sim.NF(name)
		down := sim.Downstream(name)
		m.Components = append(m.Components, ComponentMeta{
			Name:     name,
			Kind:     nf.Kind(),
			PeakRate: nf.PeakRate(),
			Egress:   len(down) == 0,
		})
		for _, to := range down {
			m.Edges = append(m.Edges, Edge{From: name, To: to})
		}
	}
	return m
}

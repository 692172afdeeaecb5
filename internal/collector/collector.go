package collector

import (
	"microscope/internal/nfsim"
	"microscope/internal/obs"
	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// ringBytes sizes the shared-memory staging ring. When the encoded
// stream would overflow the ring, the dumper drains it synchronously —
// mirroring the paper's standalone dumper keeping up with the collector.
const ringBytes = 1 << 20

// Config tunes the collector.
type Config struct {
	// Obs receives ingest volume counters (batches, packets, encoded
	// bytes). nil falls back to the process default registry.
	Obs *obs.Registry
}

// Collector implements nfsim.Hooks, staging records through the encoding
// ring and retaining the decoded stream for offline diagnosis.
//
// Per-packet critical-path cost is deliberately tiny: append IPIDs into a
// reused scratch buffer, encode with the compact codec, copy into the ring.
// CostModel documents the equivalent per-packet cost applied to NFs when
// measuring the §6.2 overhead.
type Collector struct {
	ring *Ring

	records []BatchRecord
	// scratch buffers reused across hook invocations
	ipids  []uint16
	tuples []packet.FiveTuple

	stats Stats

	// Observability handles, resolved once at New (nil = disabled).
	obsBatches *obs.Counter
	obsPackets *obs.Counter
	obsBytes   *obs.Counter
}

// Stats reports collection volume, used by the overhead evaluation.
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
	c := &Collector{ring: NewRing(ringBytes)}
	if reg := obs.Or(cfg.Obs); reg != nil {
		c.obsBatches = reg.Counter("microscope_collector_batches_total")
		c.obsPackets = reg.Counter("microscope_collector_packets_total")
		c.obsBytes = reg.Counter("microscope_collector_bytes_total")
	}
	return c
}

// Stats returns collection counters.
func (c *Collector) Stats() Stats { return c.stats }

// Trace finalizes collection and returns the trace with the given
// deployment metadata attached. The staging ring is drained first (which
// also flushes the encoder's reorder buffer, so flush bytes count toward
// the overhead stats).
func (c *Collector) Trace(meta Meta) *Trace {
	c.stats.BytesEncoded += uint64(c.ring.Drain())
	return &Trace{Meta: meta, Records: c.records}
}

// Records exposes the collected records so far (primarily for tests).
func (c *Collector) Records() []BatchRecord { return c.records }

func (c *Collector) add(comp, queue string, dir Dir, at simtime.Time, pkts []*packet.Packet) {
	c.ipids = c.ipids[:0]
	for _, p := range pkts {
		c.ipids = append(c.ipids, p.IPID)
	}
	rec := BatchRecord{
		Comp:  comp,
		Queue: queue,
		At:    at,
		Dir:   dir,
		IPIDs: append([]uint16(nil), c.ipids...),
	}
	if dir == DirDeliver {
		c.tuples = c.tuples[:0]
		for _, p := range pkts {
			c.tuples = append(c.tuples, p.Flow)
		}
		rec.Tuples = append([]packet.FiveTuple(nil), c.tuples...)
	}
	// Stage through the ring: encode, write, and let the dumper drain.
	n := c.ring.Put(&rec)
	c.stats.Batches++
	c.stats.PacketsSeen += uint64(len(pkts))
	c.stats.BytesEncoded += uint64(n)
	c.obsBatches.Inc()
	c.obsPackets.Add(int64(len(pkts)))
	c.obsBytes.Add(int64(n))
	c.records = append(c.records, rec)
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

// MetaFor builds trace metadata from an evaluation topology. This is
// deployment knowledge (who connects to whom; offline-measured r_i), not
// runtime collection.
func MetaFor(topo *nfsim.EvalTopology) Meta {
	m := Meta{MaxBatch: nfsim.DefaultMaxBatch}
	m.Components = append(m.Components, ComponentMeta{Name: nfsim.SourceName, Kind: "source"})
	for _, name := range topo.AllNFs() {
		nf := topo.Sim.NF(name)
		m.Components = append(m.Components, ComponentMeta{
			Name:     name,
			Kind:     nf.Kind(),
			PeakRate: nf.PeakRate(),
			Egress:   topo.KindOf(name) == "vpn",
		})
	}
	for _, n := range topo.NATs {
		m.Edges = append(m.Edges, Edge{From: nfsim.SourceName, To: n})
	}
	for _, n := range topo.NATs {
		for _, f := range topo.Firewalls {
			m.Edges = append(m.Edges, Edge{From: n, To: f})
		}
	}
	for _, f := range topo.Firewalls {
		for _, mo := range topo.Monitors {
			m.Edges = append(m.Edges, Edge{From: f, To: mo})
		}
		for _, v := range topo.VPNs {
			m.Edges = append(m.Edges, Edge{From: f, To: v})
		}
	}
	for _, mo := range topo.Monitors {
		for _, v := range topo.VPNs {
			m.Edges = append(m.Edges, Edge{From: mo, To: v})
		}
	}
	return m
}

// MetaForChain builds metadata for a linear chain built with
// nfsim.BuildChain: source -> specs[0] -> ... -> specs[last] (egress).
func MetaForChain(sim *nfsim.Sim, names []string) Meta {
	m := Meta{MaxBatch: nfsim.DefaultMaxBatch}
	m.Components = append(m.Components, ComponentMeta{Name: nfsim.SourceName, Kind: "source"})
	prev := nfsim.SourceName
	for i, name := range names {
		nf := sim.NF(name)
		m.Components = append(m.Components, ComponentMeta{
			Name:     name,
			Kind:     nf.Kind(),
			PeakRate: nf.PeakRate(),
			Egress:   i == len(names)-1,
		})
		m.Edges = append(m.Edges, Edge{From: prev, To: name})
		prev = name
	}
	return m
}

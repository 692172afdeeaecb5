// Package packet defines the packet model shared by the traffic generator,
// the NF simulator, the runtime collector, and the diagnosis engine.
//
// A packet carries a five-tuple and an IPID, exactly the fields Microscope's
// collector is allowed to observe (paper Table 1). The simulator additionally
// threads a globally unique ID through each packet; that ID is ground truth
// used only by tests and by the evaluation harness to score diagnosis
// accuracy — the diagnosis pipeline itself never reads it.
package packet

import (
	"fmt"

	"microscope/internal/simtime"
)

// Proto numbers for the protocols the workload generator emits.
const (
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
	ProtoICMP uint8 = 1
)

// FiveTuple identifies a flow. IPv4 addresses are stored as uint32 in host
// order so that prefix aggregation is cheap bit arithmetic.
type FiveTuple struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// String renders the tuple in the src -> dst form used by the paper's
// pattern listings.
func (ft FiveTuple) String() string {
	return fmt.Sprintf("%s:%d > %s:%d/%d",
		IPString(ft.SrcIP), ft.SrcPort, IPString(ft.DstIP), ft.DstPort, ft.Proto)
}

// Hash returns a stable non-cryptographic hash of the tuple, used for
// flow-level load balancing (the paper's NFV entry point hashes header
// fields). FNV-1a over the 13 tuple bytes.
func (ft FiveTuple) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(byte(ft.SrcIP >> 24))
	mix(byte(ft.SrcIP >> 16))
	mix(byte(ft.SrcIP >> 8))
	mix(byte(ft.SrcIP))
	mix(byte(ft.DstIP >> 24))
	mix(byte(ft.DstIP >> 16))
	mix(byte(ft.DstIP >> 8))
	mix(byte(ft.DstIP))
	mix(byte(ft.SrcPort >> 8))
	mix(byte(ft.SrcPort))
	mix(byte(ft.DstPort >> 8))
	mix(byte(ft.DstPort))
	mix(ft.Proto)
	// FNV-1a avalanches poorly in the low bits, which are exactly what
	// modulo-n load balancing consumes; run the splitmix64 finalizer to
	// spread the entropy.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// IPString formats a host-order uint32 IPv4 address in dotted quad.
func IPString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IPFromOctets builds a host-order uint32 IPv4 address.
func IPFromOctets(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// ID is the simulator-global unique packet identifier (ground truth only).
type ID uint64

// Packet is a unit of work flowing through the simulated NF DAG.
//
// Packets are allocated once at the source and passed by pointer through
// queues; NFs never copy them. The per-hop history (Hops) is ground truth
// recorded by the simulator for evaluation and tests; the Microscope
// collector produces its own, much more limited, record stream.
type Packet struct {
	ID   ID
	Flow FiveTuple
	IPID uint16 // 16-bit IP identification field; wraps, may collide
	Size int    // bytes on the wire

	// CreatedAt is the time the traffic source emitted the packet.
	CreatedAt simtime.Time

	// Hops is the ground-truth journey: one entry per component traversed.
	Hops []Hop

	// Burst marks packets belonging to an injected traffic burst
	// (evaluation ground truth).
	Burst int32 // injection id, -1 if none

	// Dropped records where the packet was dropped, or "" if delivered.
	Dropped string
}

// Hop is one ground-truth traversal record.
type Hop struct {
	Node      string       // component name
	EnqueueAt simtime.Time // when the packet entered the component's input queue
	DequeueAt simtime.Time // when the component read it from the queue
	DepartAt  simtime.Time // when the component finished and emitted it
}

// LastHop returns the final hop record, or nil if the packet has none.
func (p *Packet) LastHop() *Hop {
	if len(p.Hops) == 0 {
		return nil
	}
	return &p.Hops[len(p.Hops)-1]
}

// HopAt returns the hop record at the named node, or nil.
func (p *Packet) HopAt(node string) *Hop {
	for i := range p.Hops {
		if p.Hops[i].Node == node {
			return &p.Hops[i]
		}
	}
	return nil
}

// Latency returns the end-to-end latency of a delivered packet: emission to
// final departure. It returns 0 for packets with no hops.
func (p *Packet) Latency() simtime.Duration {
	lh := p.LastHop()
	if lh == nil {
		return 0
	}
	return lh.DepartAt.Sub(p.CreatedAt)
}

// QueueDelayAt returns the time the packet spent waiting in the input queue
// of the named node, or -1 if the packet never traversed it.
func (p *Packet) QueueDelayAt(node string) simtime.Duration {
	h := p.HopAt(node)
	if h == nil {
		return -1
	}
	return h.DequeueAt.Sub(h.EnqueueAt)
}

// Path returns the ordered list of component names the packet traversed.
func (p *Packet) Path() []string {
	out := make([]string, len(p.Hops))
	for i := range p.Hops {
		out[i] = p.Hops[i].Node
	}
	return out
}

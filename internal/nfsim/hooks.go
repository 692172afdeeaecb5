package nfsim

import (
	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// Hooks is the instrumentation surface the simulator exposes. It mirrors
// the two DPDK functions Microscope's collector instruments (§5): the
// receive path (BatchRead) and the transmit path (BatchWrite), plus graph
// egress and drops. The runtime collector implements this interface; tests
// use it to assert on the exact batch stream.
//
// Implementations must not retain the pkts slice: it is reused by the
// caller. Retain copies of the fields you need.
type Hooks interface {
	// BatchRead fires when component nf dequeues a batch from its input
	// queue q at time at. len(pkts) is the batch size; a batch smaller
	// than the NF's MaxBatch means the queue drained (§5).
	BatchRead(nf string, at simtime.Time, q *Queue, pkts []*packet.Packet)

	// BatchWrite fires when component from successfully enqueues a batch
	// onto queue q at time at.
	BatchWrite(from string, at simtime.Time, q *Queue, pkts []*packet.Packet)

	// Deliver fires when packets leave the NF graph at nf (its route
	// returned the egress port). The paper records full five-tuples only
	// here, at the end of the graph.
	Deliver(nf string, at simtime.Time, pkts []*packet.Packet)

	// Drop fires when an enqueue onto q by component from tail-drops.
	Drop(from string, at simtime.Time, q *Queue, pkts []*packet.Packet)
}

// NopHooks is a Hooks implementation that does nothing; embed it to
// implement only part of the interface.
type NopHooks struct{}

// BatchRead implements Hooks.
func (NopHooks) BatchRead(string, simtime.Time, *Queue, []*packet.Packet) {}

// BatchWrite implements Hooks.
func (NopHooks) BatchWrite(string, simtime.Time, *Queue, []*packet.Packet) {}

// Deliver implements Hooks.
func (NopHooks) Deliver(string, simtime.Time, []*packet.Packet) {}

// Drop implements Hooks.
func (NopHooks) Drop(string, simtime.Time, *Queue, []*packet.Packet) {}

package nfsim

import (
	"microscope/internal/packet"
)

// DefaultQueueCap mirrors the DPDK ring size the paper assumes (§5: "the
// maximum number of packets in a queue in DPDK is 1024").
const DefaultQueueCap = 1024

// Queue is a bounded FIFO packet ring connecting an upstream component to
// one downstream NF. Enqueues beyond capacity tail-drop, exactly like a
// full rte_ring. Queues are single-consumer: each belongs to one NF.
type Queue struct {
	name     string
	owner    string // name of the consuming NF
	capacity int

	buf  []*packet.Packet
	head int
	n    int

	enqueued uint64
	dequeued uint64
	drops    uint64

	// onEnqueue wakes the consuming NF when the queue transitions from
	// empty to non-empty.
	onEnqueue func()
}

// NewQueue creates a queue with the given name and capacity (DefaultQueueCap
// if cap <= 0).
func NewQueue(name string, capacity int) *Queue {
	if capacity <= 0 {
		capacity = DefaultQueueCap
	}
	return &Queue{
		name:     name,
		capacity: capacity,
		buf:      make([]*packet.Packet, capacity),
	}
}

// Name returns the queue's identifier (by convention "<nf>.in").
func (q *Queue) Name() string { return q.name }

// Cap returns the queue capacity.
func (q *Queue) Cap() int { return q.capacity }

// Len returns the number of resident packets.
func (q *Queue) Len() int { return q.n }

// Drops returns the cumulative tail-drop count.
func (q *Queue) Drops() uint64 { return q.drops }

// Enqueued returns the cumulative successful enqueue count.
func (q *Queue) Enqueued() uint64 { return q.enqueued }

// Dequeued returns the cumulative dequeue count.
func (q *Queue) Dequeued() uint64 { return q.dequeued }

// Enqueue appends p, returning false (and counting a drop) when full.
func (q *Queue) Enqueue(p *packet.Packet) bool {
	if q.n == q.capacity {
		q.drops++
		return false
	}
	wasEmpty := q.n == 0
	q.buf[(q.head+q.n)%q.capacity] = p
	q.n++
	q.enqueued++
	if wasEmpty && q.onEnqueue != nil {
		q.onEnqueue()
	}
	return true
}

// DequeueBatch removes up to max packets in FIFO order into dst and returns
// the filled prefix of dst. dst must have capacity >= max.
func (q *Queue) DequeueBatch(dst []*packet.Packet, max int) []*packet.Packet {
	if max > q.n {
		max = q.n
	}
	dst = dst[:0]
	for i := 0; i < max; i++ {
		p := q.buf[q.head]
		q.buf[q.head] = nil
		q.head = (q.head + 1) % q.capacity
		dst = append(dst, p)
	}
	q.n -= max
	q.dequeued += uint64(max)
	return dst
}

// setConsumerWakeup registers the wake callback invoked on an
// empty→non-empty transition. Internal: NFs call this when attached.
func (q *Queue) setConsumerWakeup(fn func()) { q.onEnqueue = fn }

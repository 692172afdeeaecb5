package nfsim

import (
	"fmt"
	"slices"
	"sort"

	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// SourceName is the component name of the traffic source. The paper treats
// traffic sources as first-class culprit candidates; so do we.
const SourceName = "source"

// Interrupt is a ground-truth record of an injected CPU interrupt.
type Interrupt struct {
	NF    string
	At    simtime.Time
	Dur   simtime.Duration
	Label string
}

// Bug is a ground-truth record of an injected NF processing bug.
type Bug struct {
	NF    string
	Label string
}

// Burst is a ground-truth record of an injected traffic burst.
type Burst struct {
	ID    int32
	Flow  packet.FiveTuple
	At    simtime.Time
	Count int
}

// GroundTruth accumulates every injected problem. The evaluation harness
// scores diagnosis output against this; the diagnosis pipeline never sees
// it.
type GroundTruth struct {
	Interrupts []Interrupt
	Bugs       []Bug
	Bursts     []Burst
}

// QueueSample is one ground-truth queue-length observation, used to render
// the motivation figures (1b, 2c).
type QueueSample struct {
	At  simtime.Time
	Len int
}

// Sim owns an engine, a source, and a DAG of NFs, and retains ground truth
// for evaluation: every packet created, every injected problem.
type Sim struct {
	eng   *Engine
	hooks Hooks
	truth GroundTruth

	nfs      map[string]*NF
	nfOrder  []string
	srcRoute RouteFunc
	srcOuts  []*Queue

	nextID     packet.ID
	nextIPID   uint16
	packets    []*packet.Packet
	samplers   map[string][]QueueSample
	sampleStep simtime.Duration

	// hot-path scratch buffers (hooks must not retain slices)
	okBuf, dropBuf []*packet.Packet
	emitGroups     [][]*packet.Packet

	// pktChunk and hopSlab are the unused tails of the chunks new packets
	// and their first hops are cut from, so a packet costs no allocation
	// of its own. Earlier packets alias the chunks: they are replaced
	// when used up, never grown.
	pktChunk []packet.Packet
	hopSlab  []packet.Hop
}

const (
	// packetChunk is how many packets one allocation holds.
	packetChunk = 256
	// initialHops is the hop capacity a new packet gets from the slab:
	// the longest evaluation path (nat, fw, mon, vpn). A longer path
	// reallocates the packet's hops on its own.
	initialHops = 4
)

// New creates an empty simulation with the given instrumentation hooks
// (use NopHooks{} for none).
func New(hooks Hooks) *Sim {
	if hooks == nil {
		hooks = NopHooks{}
	}
	return &Sim{
		eng:   NewEngine(),
		hooks: hooks,
		nfs:   make(map[string]*NF),
	}
}

// Engine exposes the event engine (for tests and samplers).
func (s *Sim) Engine() *Engine { return s.eng }

// Truth returns the accumulated ground truth.
func (s *Sim) Truth() *GroundTruth { return &s.truth }

// Packets returns every packet the source created, in creation order.
func (s *Sim) Packets() []*packet.Packet { return s.packets }

// AddNF registers an NF instance.
func (s *Sim) AddNF(cfg NFConfig) *NF {
	if _, dup := s.nfs[cfg.Name]; dup {
		panic(fmt.Sprintf("nfsim: duplicate NF name %q", cfg.Name))
	}
	nf := newNF(s, cfg)
	s.nfs[cfg.Name] = nf
	s.nfOrder = append(s.nfOrder, cfg.Name)
	return nf
}

// NF returns the named instance, or nil.
func (s *Sim) NF(name string) *NF { return s.nfs[name] }

// NFs returns the instance names in AddNF order.
func (s *Sim) NFs() []string { return append([]string(nil), s.nfOrder...) }

// Downstream returns the names an NF, or the source under SourceName, was
// wired to, in the order its Connect or ConnectSource call named them;
// none for an egress NF.
func (s *Sim) Downstream(name string) []string {
	outs := s.srcOuts
	if name != SourceName {
		outs = s.nfs[name].outs
	}
	names := make([]string, len(outs))
	for i, q := range outs {
		names[i] = q.owner
	}
	return names
}

// Connect wires an NF's outputs: route selects among the input queues of
// the named downstream NFs (or returns Egress).
func (s *Sim) Connect(name string, route RouteFunc, downstream ...string) {
	nf := s.nfs[name]
	if nf == nil {
		panic(fmt.Sprintf("nfsim: Connect: unknown NF %q", name))
	}
	outs := make([]*Queue, len(downstream))
	for i, d := range downstream {
		dn := s.nfs[d]
		if dn == nil {
			panic(fmt.Sprintf("nfsim: Connect: unknown downstream NF %q", d))
		}
		outs[i] = dn.In()
	}
	nf.connect(route, outs)
}

// ConnectSource wires the traffic source: route selects among the input
// queues of the named NFs for each emitted packet.
func (s *Sim) ConnectSource(route RouteFunc, downstream ...string) {
	outs := make([]*Queue, len(downstream))
	for i, d := range downstream {
		dn := s.nfs[d]
		if dn == nil {
			panic(fmt.Sprintf("nfsim: ConnectSource: unknown NF %q", d))
		}
		outs[i] = dn.In()
	}
	s.srcRoute = route
	s.srcOuts = outs
}

// InjectInterrupt schedules a CPU interrupt: the named NF stalls for dur
// starting at t. Recorded as ground truth.
func (s *Sim) InjectInterrupt(name string, at simtime.Time, dur simtime.Duration, label string) {
	nf := s.nfs[name]
	if nf == nil {
		panic(fmt.Sprintf("nfsim: InjectInterrupt: unknown NF %q", name))
	}
	s.truth.Interrupts = append(s.truth.Interrupts, Interrupt{NF: name, At: at, Dur: dur, Label: label})
	s.eng.At(at, func() { nf.stall(at.Add(dur)) })
}

// InjectBug installs a slow path on the named NF. Recorded as ground truth.
func (s *Sim) InjectBug(name string, sp *SlowPath, label string) {
	nf := s.nfs[name]
	if nf == nil {
		panic(fmt.Sprintf("nfsim: InjectBug: unknown NF %q", name))
	}
	nf.setSlowPath(sp)
	s.truth.Bugs = append(s.truth.Bugs, Bug{NF: name, Label: label})
}

// LoadSchedule replays a traffic schedule through the source. Burst ground
// truth is extracted from the schedule's burst-tagged emissions.
func (s *Sim) LoadSchedule(sched *traffic.Schedule) {
	if s.srcRoute == nil || len(s.srcOuts) == 0 {
		panic("nfsim: LoadSchedule before ConnectSource")
	}
	bursts := make(map[int32]*Burst)
	for _, em := range sched.Emissions {
		if em.Burst >= 0 {
			b := bursts[em.Burst]
			if b == nil {
				b = &Burst{ID: em.Burst, Flow: em.Flow, At: em.At}
				bursts[em.Burst] = b
			}
			b.Count++
			if em.At < b.At {
				b.At = em.At
			}
		}
	}
	ids := make([]int32, 0, len(bursts))
	for id := range bursts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.truth.Bursts = append(s.truth.Bursts, *bursts[id])
	}
	emissions := sched.Emissions
	if len(emissions) == 0 {
		return
	}
	s.packets = slices.Grow(s.packets, len(emissions))
	// One callback replays every instant: it emits the group of
	// emissions at the next index and reschedules itself for the one
	// after, so replay allocates nothing per instant.
	next := 0
	var replay func()
	replay = func() {
		// Emit every packet scheduled for this instant as one batch per
		// destination queue, like a paced generator draining its tx ring.
		i := next
		t := emissions[i].At
		j := i
		for j < len(emissions) && emissions[j].At == t {
			j++
		}
		next = j
		s.emit(emissions[i:j])
		if j < len(emissions) {
			s.eng.At(emissions[j].At, replay)
		}
	}
	s.eng.At(emissions[0].At, replay)
}

// emit creates packets for a group of same-instant emissions and transmits
// them to their routed queues.
func (s *Sim) emit(ems []traffic.Emission) {
	now := s.eng.Now()
	// Group per output queue to produce realistic batch write records.
	if len(s.emitGroups) < len(s.srcOuts) {
		s.emitGroups = make([][]*packet.Packet, len(s.srcOuts))
	}
	groups := s.emitGroups
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	for _, em := range ems {
		if len(s.pktChunk) == 0 {
			// The hop slab runs out with the packet chunk.
			s.pktChunk = make([]packet.Packet, packetChunk)
			s.hopSlab = make([]packet.Hop, packetChunk*initialHops)
		}
		p := &s.pktChunk[0]
		s.pktChunk = s.pktChunk[1:]
		*p = packet.Packet{
			ID:        s.nextID,
			Flow:      em.Flow,
			IPID:      s.nextIPID,
			Size:      em.Size,
			CreatedAt: now,
			// Capacity-clipped, so a fifth hop reallocates rather
			// than writing into the next packet's hops.
			Hops:  s.hopSlab[:0:initialHops],
			Burst: em.Burst,
		}
		s.hopSlab = s.hopSlab[initialHops:]
		s.nextID++
		s.nextIPID++ // wraps at 65536 by uint16 arithmetic
		s.packets = append(s.packets, p)
		out := 0
		if s.srcRoute != nil {
			out = s.srcRoute(p)
		}
		if out < 0 || out >= len(s.srcOuts) {
			out = 0
		}
		groups[out] = append(groups[out], p)
	}
	for out := range groups[:len(s.srcOuts)] {
		if len(groups[out]) > 0 {
			s.transmit(SourceName, now, s.srcOuts[out], groups[out])
		}
	}
}

// transmit enqueues a batch onto q, recording ground-truth hops, write
// records for the enqueued prefix, and drop records for the remainder.
// The ok/drop staging buffers are reused; hooks must not retain them.
func (s *Sim) transmit(from string, at simtime.Time, q *Queue, pkts []*packet.Packet) {
	ok := s.okBuf[:0]
	dropped := s.dropBuf[:0]
	for _, p := range pkts {
		if q.Enqueue(p) {
			p.Hops = append(p.Hops, packet.Hop{Node: q.owner, EnqueueAt: at})
			ok = append(ok, p)
		} else {
			p.Dropped = q.owner
			dropped = append(dropped, p)
		}
	}
	if len(ok) > 0 {
		s.hooks.BatchWrite(from, at, q, ok)
	}
	if len(dropped) > 0 {
		s.hooks.Drop(from, at, q, dropped)
	}
	s.okBuf, s.dropBuf = ok[:0], dropped[:0]
}

// deliver hands packets leaving the graph to the hooks.
func (s *Sim) deliver(nf string, at simtime.Time, pkts []*packet.Packet) {
	s.hooks.Deliver(nf, at, pkts)
}

// SampleQueues records the length of every NF input queue every step, for
// rendering the motivation figures. Call before Run.
func (s *Sim) SampleQueues(step simtime.Duration, until simtime.Time) {
	s.samplers = make(map[string][]QueueSample, len(s.nfs))
	s.sampleStep = step
	var tick func()
	tick = func() {
		now := s.eng.Now()
		for name, nf := range s.nfs {
			s.samplers[name] = append(s.samplers[name], QueueSample{At: now, Len: nf.In().Len()})
		}
		if now.Add(step) <= until {
			s.eng.At(now.Add(step), tick)
		}
	}
	s.eng.At(0, tick)
}

// QueueSamples returns the samples recorded for the named NF's input queue.
func (s *Sim) QueueSamples(name string) []QueueSample {
	if s.samplers == nil {
		return nil
	}
	return s.samplers[name]
}

// Run executes the simulation until the given time.
func (s *Sim) Run(until simtime.Time) { s.eng.Run(until) }

// FlowHashRoute returns a RouteFunc that picks among n outputs by flow
// hash — the flow-level load balancing of §6.1.
func FlowHashRoute(n int) RouteFunc {
	if n <= 0 {
		panic("nfsim: FlowHashRoute needs n > 0")
	}
	un := uint64(n)
	return func(p *packet.Packet) int { return int(p.Flow.Hash() % un) }
}

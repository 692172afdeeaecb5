package nfsim

import (
	"fmt"
	"math/rand"

	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// DefaultMaxBatch is the DPDK receive batch size the paper assumes
// ("the maximum batch size is typically 32 packets", §5).
const DefaultMaxBatch = 32

// Egress is the route target meaning "the packet leaves the NF graph here".
const Egress = -1

// RouteFunc selects the output port index for a packet, or Egress.
type RouteFunc func(p *packet.Packet) int

// SlowPath models an NF bug that processes matching flows at a reduced
// rate, like the Firewall bug of §6.2/§6.4 (0.05 Mpps for trigger flows).
type SlowPath struct {
	Match func(ft packet.FiveTuple) bool
	Rate  simtime.Rate
}

// NFConfig describes one NF instance.
type NFConfig struct {
	// Name uniquely identifies the instance (e.g. "fw2").
	Name string
	// Kind is the NF type (e.g. "nat", "fw", "mon", "vpn"), used by
	// pattern aggregation to group instances of the same type.
	Kind string
	// PeakRate is r_i: the peak processing rate with these settings.
	PeakRate simtime.Rate
	// JitterFrac adds uniform per-packet service-time overhead in
	// [0, JitterFrac] of the base interval, so the achieved rate sits
	// slightly below peak — as in any real deployment.
	JitterFrac float64
	// SpikeProb is the per-packet probability of a fine-timescale
	// service spike (cache miss, minor context switch).
	SpikeProb float64
	// SpikeFactor multiplies the base service time during a spike.
	SpikeFactor float64
	// MaxBatch caps the receive batch (DefaultMaxBatch if 0).
	MaxBatch int
	// QueueCap sizes the input ring (DefaultQueueCap if 0).
	QueueCap int
	// Seed drives per-NF service jitter.
	Seed int64
	// SlowPath, when set, is an injected processing bug.
	SlowPath *SlowPath
	// PerPacketOverhead models runtime instrumentation cost on the
	// critical path (e.g. Microscope's collector, §6.2): it is added to
	// every packet's service time.
	PerPacketOverhead simtime.Duration

	// Optional NF-kind service models. The evaluation NFs are
	// rate-boxes, as the paper's diagnosis requires nothing more; these
	// knobs let library users model the costs their real NFs have.

	// PerByte adds size-proportional work (VPN encryption, DPI).
	PerByte simtime.Duration
	// RuleCount and PerRule model linear rule-table matching
	// (firewalls): every packet pays RuleCount × PerRule.
	RuleCount int
	PerRule   simtime.Duration
	// FlowSetupCost is paid by the first packet of each flow (NAT
	// binding allocation, connection tracking). FlowTableCap bounds the
	// tracked flows; beyond it the oldest entries are evicted, so
	// long-lived traffic re-pays setup under table pressure (default
	// 65536 when FlowSetupCost is set).
	FlowSetupCost simtime.Duration
	FlowTableCap  int

	// RewriteIPID makes the NF assign a fresh IPID to every packet it
	// emits, like NATs or proxies that regenerate the IP header. The
	// paper (§7) notes Microscope cannot track packets across such NFs:
	// journeys truncate there and diagnosis proceeds segment-wise.
	RewriteIPID bool
}

func (c *NFConfig) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.SpikeFactor <= 0 {
		c.SpikeFactor = 1
	}
}

// NFStats exposes per-NF counters for evaluation and for the NetMedic
// baseline's resource monitoring.
type NFStats struct {
	Processed uint64           // packets fully processed
	Batches   uint64           // batches read
	BusyTime  simtime.Duration // cumulative processing time
	StallTime simtime.Duration // cumulative injected-interrupt stall
}

// NF is one simulated network-function instance: a single core polling a
// single input ring and transmitting to one or more output ports.
type NF struct {
	cfg   NFConfig
	sim   *Sim
	in    *Queue
	outs  []*Queue
	route RouteFunc
	rng   *rand.Rand

	baseInterval simtime.Duration

	processing bool         // a batch is in flight; completion re-polls
	wakeQueued bool         // a wake event is already scheduled
	stallUntil simtime.Time // injected interrupt in effect until here

	batchBuf  []*packet.Packet
	pending   []*packet.Packet   // the batch in flight (at most one per NF)
	groupBuf  [][]*packet.Packet // per-port staging, index parallel to outs
	egressBuf []*packet.Packet

	// pollFn / completeFn are bound once so the hot loop schedules
	// events without allocating a closure per batch.
	pollFn     func()
	completeFn func()

	// flowTable implements FlowSetupCost: known flows in a bounded FIFO
	// eviction ring.
	flowTable map[packet.FiveTuple]struct{}
	flowRing  []packet.FiveTuple
	flowNext  int

	// nextIPID implements RewriteIPID.
	nextIPID uint16

	stats NFStats
}

func newNF(sim *Sim, cfg NFConfig) *NF {
	cfg.setDefaults()
	if cfg.PeakRate <= 0 {
		panic(fmt.Sprintf("nfsim: NF %q needs a positive peak rate", cfg.Name))
	}
	nf := &NF{
		cfg:          cfg,
		sim:          sim,
		in:           NewQueue(cfg.Name+".in", cfg.QueueCap), // collector.QueueOf, which nfsim cannot import
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		baseInterval: cfg.PeakRate.Interval(),
		batchBuf:     make([]*packet.Packet, 0, cfg.MaxBatch),
	}
	nf.in.owner = cfg.Name
	nf.in.setConsumerWakeup(nf.requestWake)
	nf.pollFn = nf.poll
	nf.completeFn = nf.complete
	if cfg.RewriteIPID {
		// Start the fresh-IPID counter away from the source's (which
		// begins at 0), as independent IP stacks would.
		nf.nextIPID = uint16(0x9e37 + cfg.Seed*31)
	}
	if cfg.FlowSetupCost > 0 {
		capacity := cfg.FlowTableCap
		if capacity <= 0 {
			capacity = 65536
		}
		nf.cfg.FlowTableCap = capacity
		nf.flowTable = make(map[packet.FiveTuple]struct{}, capacity)
		nf.flowRing = make([]packet.FiveTuple, capacity)
	}
	return nf
}

// Name returns the instance name.
func (nf *NF) Name() string { return nf.cfg.Name }

// Kind returns the NF type.
func (nf *NF) Kind() string { return nf.cfg.Kind }

// PeakRate returns r_i.
func (nf *NF) PeakRate() simtime.Rate { return nf.cfg.PeakRate }

// In returns the NF's input queue.
func (nf *NF) In() *Queue { return nf.in }

// Stats returns a copy of the NF's counters.
func (nf *NF) Stats() NFStats { return nf.stats }

// connect wires the NF's output ports and routing function.
func (nf *NF) connect(route RouteFunc, outs []*Queue) {
	nf.route = route
	nf.outs = outs
	nf.groupBuf = make([][]*packet.Packet, len(outs))
	for i := range nf.groupBuf {
		nf.groupBuf[i] = make([]*packet.Packet, 0, nf.cfg.MaxBatch)
	}
	nf.egressBuf = make([]*packet.Packet, 0, nf.cfg.MaxBatch)
}

// setSlowPath installs or replaces the NF's bug at runtime.
func (nf *NF) setSlowPath(sp *SlowPath) { nf.cfg.SlowPath = sp }

// stall pauses the NF until t (injected interrupt). If the NF is mid-batch
// the stall takes effect at the next poll, matching how a kernel interrupt
// preempts a DPDK core between iterations of its run-to-completion loop at
// the granularity we simulate.
func (nf *NF) stall(until simtime.Time) {
	now := nf.sim.eng.Now()
	if until <= now {
		return
	}
	if until > nf.stallUntil {
		if nf.stallUntil > now {
			nf.stats.StallTime += until.Sub(nf.stallUntil)
		} else {
			nf.stats.StallTime += until.Sub(now)
		}
		nf.stallUntil = until
	}
	nf.requestWake()
}

// requestWake schedules a poll if one is not already pending and the NF is
// not mid-batch (the batch-completion event re-polls on its own).
func (nf *NF) requestWake() {
	if nf.processing || nf.wakeQueued {
		return
	}
	nf.wakeQueued = true
	nf.sim.eng.At(nf.sim.eng.Now(), nf.pollFn)
}

// poll is the NF main loop body: honor stalls, read a batch, process it.
func (nf *NF) poll() {
	nf.wakeQueued = false
	if nf.processing {
		return
	}
	now := nf.sim.eng.Now()
	if now < nf.stallUntil {
		nf.wakeQueued = true
		nf.sim.eng.At(nf.stallUntil, nf.pollFn)
		return
	}
	if nf.in.Len() == 0 {
		return // sleep; the queue wakes us on enqueue
	}
	batch := nf.in.DequeueBatch(nf.batchBuf, nf.cfg.MaxBatch)
	nf.batchBuf = batch[:0]
	for _, p := range batch {
		if h := p.LastHop(); h != nil && h.Node == nf.cfg.Name {
			h.DequeueAt = now
		}
	}
	nf.sim.hooks.BatchRead(nf.cfg.Name, now, nf.in, batch)
	nf.stats.Batches++

	var proc simtime.Duration
	for _, p := range batch {
		proc += nf.serviceTime(p)
	}
	done := now.Add(proc)
	nf.processing = true
	nf.stats.BusyTime += proc
	// Stage the batch: only one batch is ever in flight per NF, so a
	// reused buffer replaces a per-batch allocation.
	nf.pending = append(nf.pending[:0], batch...)
	nf.sim.eng.At(done, nf.completeFn)
}

// serviceTime computes one packet's processing time: base interval, uniform
// jitter, rare spikes, and the slow path for bug-matched flows.
func (nf *NF) serviceTime(p *packet.Packet) simtime.Duration {
	base := nf.baseInterval
	if sp := nf.cfg.SlowPath; sp != nil && sp.Match(p.Flow) {
		base = sp.Rate.Interval()
	}
	d := base + nf.cfg.PerPacketOverhead
	if nf.cfg.PerByte > 0 {
		d += simtime.Duration(p.Size) * nf.cfg.PerByte
	}
	if nf.cfg.RuleCount > 0 && nf.cfg.PerRule > 0 {
		d += simtime.Duration(nf.cfg.RuleCount) * nf.cfg.PerRule
	}
	if nf.flowTable != nil {
		if _, known := nf.flowTable[p.Flow]; !known {
			d += nf.cfg.FlowSetupCost
			// Evict the ring slot's previous occupant.
			old := nf.flowRing[nf.flowNext]
			if _, occupied := nf.flowTable[old]; occupied && old != p.Flow {
				delete(nf.flowTable, old)
			}
			nf.flowRing[nf.flowNext] = p.Flow
			nf.flowNext = (nf.flowNext + 1) % len(nf.flowRing)
			nf.flowTable[p.Flow] = struct{}{}
		}
	}
	if nf.cfg.JitterFrac > 0 {
		d += simtime.Duration(float64(base) * nf.cfg.JitterFrac * nf.rng.Float64())
	}
	if nf.cfg.SpikeProb > 0 && nf.rng.Float64() < nf.cfg.SpikeProb {
		d += simtime.Duration(float64(base) * (nf.cfg.SpikeFactor - 1))
	}
	if d < 1 {
		d = 1
	}
	return d
}

// complete transmits the pending batch and immediately re-polls.
func (nf *NF) complete() {
	batch := nf.pending
	now := nf.sim.eng.Now()
	for i := range nf.groupBuf {
		nf.groupBuf[i] = nf.groupBuf[i][:0]
	}
	nf.egressBuf = nf.egressBuf[:0]
	for _, p := range batch {
		if h := p.LastHop(); h != nil && h.Node == nf.cfg.Name {
			h.DepartAt = now
		}
		if nf.cfg.RewriteIPID {
			p.IPID = nf.nextIPID
			nf.nextIPID++
		}
		out := Egress
		if nf.route != nil {
			out = nf.route(p)
		}
		if out == Egress || out < 0 || out >= len(nf.outs) {
			nf.egressBuf = append(nf.egressBuf, p)
			continue
		}
		nf.groupBuf[out] = append(nf.groupBuf[out], p)
	}
	for i, group := range nf.groupBuf {
		if len(group) > 0 {
			nf.sim.transmit(nf.cfg.Name, now, nf.outs[i], group)
		}
	}
	if len(nf.egressBuf) > 0 {
		nf.sim.deliver(nf.cfg.Name, now, nf.egressBuf)
	}
	nf.stats.Processed += uint64(len(batch))
	nf.processing = false
	nf.poll()
}

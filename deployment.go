package microscope

import (
	"fmt"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/simtime"
)

// ChainNF describes one NF in a linear chain deployment.
type ChainNF struct {
	Name string
	Kind string
	Rate Rate
}

// SlowPathBug describes an injected NF bug: flows matched by Match are
// processed at Rate instead of the NF's peak rate.
type SlowPathBug struct {
	Match func(FiveTuple) bool
	Rate  Rate
}

// Deployment couples a simulated NF graph with the runtime collector. It is
// the substrate stand-in for a DPDK testbed: identical queue semantics
// (1024-descriptor rings, 32-packet receive batches, tail drop), identical
// collection points.
type Deployment struct {
	sim  *nfsim.Sim
	col  *collector.Collector
	topo *nfsim.EvalTopology // nil for custom/chain deployments
	ran  simtime.Time
}

// NewChainDeployment builds source → nf1 → … → nfN → egress. It panics on
// an invalid chain; NewChainDeploymentE is the error-returning form.
func NewChainDeployment(seed int64, nfs ...ChainNF) *Deployment {
	d, err := NewChainDeploymentE(seed, nfs...)
	if err != nil {
		panic(err)
	}
	return d
}

// NewChainDeploymentE builds the chain, returning an error instead of
// panicking on invalid input. A chain is a Builder DAG whose every hop has
// one downstream.
func NewChainDeploymentE(seed int64, nfs ...ChainNF) (*Deployment, error) {
	if len(nfs) == 0 {
		return nil, fmt.Errorf("microscope: chain needs at least one NF")
	}
	b := NewBuilder(seed).Source(nil, nfs[0].Name)
	for i, nf := range nfs {
		b.AddNF(NFSpec{Name: nf.Name, Kind: nf.Kind, Rate: nf.Rate})
		if i > 0 {
			b.Connect(nfs[i-1].Name, nil, nf.Name)
		}
	}
	return b.BuildE()
}

// EvalTopologyConfig re-exports the Figure 10 topology knobs.
type EvalTopologyConfig = nfsim.EvalTopologyConfig

// NewEvalDeployment builds the paper's 16-NF evaluation topology
// (4 NATs → 5 Firewalls → 3 Monitors / 4 VPNs, Figure 10).
func NewEvalDeployment(cfg EvalTopologyConfig) *Deployment {
	col := collector.New(collector.Config{})
	topo := nfsim.BuildEvalTopology(col, cfg)
	return &Deployment{sim: topo.Sim, col: col, topo: topo}
}

// NFs returns the deployment's NF instance names in order.
func (d *Deployment) NFs() []string { return d.sim.NFs() }

// Firewalls returns the firewall instances of an evaluation deployment
// (nil for chains).
func (d *Deployment) Firewalls() []string {
	if d.topo == nil {
		return nil
	}
	return append([]string(nil), d.topo.Firewalls...)
}

// PathOf predicts the NFs a flow's packets visit, in order, from the
// routes the deployment installed: the Builder's Choosers, a chain's single
// path, or the evaluation topology's flow hashing.
func (d *Deployment) PathOf(ft FiveTuple) []string { return d.sim.PathOf(ft) }

// InjectInterrupt stalls an NF for dur starting at t (a CPU interrupt).
func (d *Deployment) InjectInterrupt(nf string, at Time, dur Duration) {
	d.sim.InjectInterrupt(nf, at, dur, "api")
}

// InjectBug installs a slow-path bug on an NF.
func (d *Deployment) InjectBug(nf string, bug SlowPathBug) {
	d.sim.InjectBug(nf, &nfsim.SlowPath{Match: bug.Match, Rate: bug.Rate}, "api")
}

// Replay loads a workload schedule into the traffic source.
func (d *Deployment) Replay(w *Workload) {
	d.sim.LoadSchedule(w.Schedule)
}

// Run advances the simulation until `until`, draining in-flight work.
func (d *Deployment) Run(until Duration) {
	d.ran = simtime.Time(until)
	d.sim.Run(simtime.Time(until))
}

// Trace finalizes collection and returns the runtime trace.
func (d *Deployment) Trace() *Trace {
	return d.col.Trace(collector.MetaOf(d.sim))
}

// QueueSampling enables ground-truth queue-length sampling (for plots, not
// for diagnosis). Must be called before Run.
func (d *Deployment) QueueSampling(step, until Duration) {
	d.sim.SampleQueues(step, simtime.Time(until))
}

// QueueSamples returns sampled (time, length) pairs for an NF's queue.
func (d *Deployment) QueueSamples(nf string) []nfsim.QueueSample {
	return d.sim.QueueSamples(nf)
}

// GroundTruth returns the injected-problem log (for evaluations only; the
// diagnosis pipeline never reads it).
func (d *Deployment) GroundTruth() *nfsim.GroundTruth {
	return d.sim.Truth()
}

// Stats summarizes a deployment run.
type Stats struct {
	Emitted   int
	Delivered int
	Dropped   int
}

// Stats computes delivery statistics from simulator ground truth.
func (d *Deployment) Stats() Stats {
	var s Stats
	for _, p := range d.sim.Packets() {
		s.Emitted++
		switch {
		case p.Dropped != "":
			s.Dropped++
		case len(p.Hops) > 0 && p.LastHop().DepartAt > 0:
			s.Delivered++
		}
	}
	return s
}

// String implements fmt.Stringer.
func (d *Deployment) String() string {
	return fmt.Sprintf("deployment(%d NFs)", len(d.sim.NFs()))
}

// internal escape hatches used by cmd tools and benchmarks.

// Sim exposes the underlying simulator (advanced use).
func (d *Deployment) Sim() *nfsim.Sim { return d.sim }

package nfsim

import (
	"fmt"

	"microscope/internal/packet"
	"microscope/internal/simtime"
)

// EvalTopologyConfig parameterizes the paper's 16-NF evaluation topology
// (Figure 10): incoming traffic is load-balanced at flow level across 4
// NATs, each NAT spreads flows across 5 Firewalls, firewalls steer flows
// matching their rule set (web ports by default) to one of 3 Monitors and
// everything else to one of 4 VPNs, and Monitors forward to VPNs. VPNs are
// the graph egress.
type EvalTopologyConfig struct {
	NATs, Firewalls, Monitors, VPNs int

	NATRate, FirewallRate, MonitorRate, VPNRate simtime.Rate

	// JitterFrac / SpikeProb / SpikeFactor apply to every NF, modelling
	// the background fine-timescale noise real deployments exhibit.
	JitterFrac  float64
	SpikeProb   float64
	SpikeFactor float64

	// RulePorts are the firewall rule destination ports steered to the
	// Monitors (default 80, 443).
	RulePorts []uint16

	// QueueCap overrides the ring size (DefaultQueueCap if 0).
	QueueCap int

	// Seed seeds per-NF jitter RNGs (each NF derives its own).
	Seed int64

	// PerPacketOverhead applies instrumentation cost to every NF
	// (used by the §6.2 collector-overhead experiment).
	PerPacketOverhead simtime.Duration
}

// Route salts: each ECMP stage decorrelates its flow-hash choice from the
// previous stage with one of these multipliers.
const (
	natStageSalt = 0x9e3779b97f4a7c15
	fwStageSalt  = 0xbf58476d1ce4e5b9
	monStageSalt = 0x94d049bb133111eb
)

func (c *EvalTopologyConfig) setDefaults() {
	if c.NATs <= 0 {
		c.NATs = 4
	}
	if c.Firewalls <= 0 {
		c.Firewalls = 5
	}
	if c.Monitors <= 0 {
		c.Monitors = 3
	}
	if c.VPNs <= 0 {
		c.VPNs = 4
	}
	if c.NATRate <= 0 {
		c.NATRate = simtime.MPPS(0.5)
	}
	if c.FirewallRate <= 0 {
		c.FirewallRate = simtime.MPPS(0.4)
	}
	if c.MonitorRate <= 0 {
		c.MonitorRate = simtime.MPPS(0.35)
	}
	if c.VPNRate <= 0 {
		c.VPNRate = simtime.MPPS(0.45)
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.08
	}
	if c.SpikeProb == 0 {
		c.SpikeProb = 0.0005
	}
	if c.SpikeFactor == 0 {
		c.SpikeFactor = 25
	}
	if len(c.RulePorts) == 0 {
		c.RulePorts = []uint16{80, 443}
	}
}

// EvalTopology is the built 16-NF chain plus its name lists.
type EvalTopology struct {
	Sim       *Sim
	NATs      []string
	Firewalls []string
	Monitors  []string
	VPNs      []string
	Config    EvalTopologyConfig
}

// AllNFs returns every instance name, NATs first.
func (t *EvalTopology) AllNFs() []string {
	out := make([]string, 0, len(t.NATs)+len(t.Firewalls)+len(t.Monitors)+len(t.VPNs))
	out = append(out, t.NATs...)
	out = append(out, t.Firewalls...)
	out = append(out, t.Monitors...)
	out = append(out, t.VPNs...)
	return out
}

// BuildEvalTopology constructs the Figure 10 topology on a fresh Sim with
// the given hooks.
func BuildEvalTopology(hooks Hooks, cfg EvalTopologyConfig) *EvalTopology {
	cfg.setDefaults()
	sim := New(hooks)
	t := &EvalTopology{Sim: sim, Config: cfg}

	add := func(kind string, i int, rate simtime.Rate) string {
		name := fmt.Sprintf("%s%d", kind, i+1)
		sim.AddNF(NFConfig{
			Name:              name,
			Kind:              kind,
			PeakRate:          rate,
			JitterFrac:        cfg.JitterFrac,
			SpikeProb:         cfg.SpikeProb,
			SpikeFactor:       cfg.SpikeFactor,
			QueueCap:          cfg.QueueCap,
			Seed:              cfg.Seed + int64(len(sim.nfOrder))*7919,
			PerPacketOverhead: cfg.PerPacketOverhead,
		})
		return name
	}
	for i := 0; i < cfg.NATs; i++ {
		t.NATs = append(t.NATs, add("nat", i, cfg.NATRate))
	}
	for i := 0; i < cfg.Firewalls; i++ {
		t.Firewalls = append(t.Firewalls, add("fw", i, cfg.FirewallRate))
	}
	for i := 0; i < cfg.Monitors; i++ {
		t.Monitors = append(t.Monitors, add("mon", i, cfg.MonitorRate))
	}
	for i := 0; i < cfg.VPNs; i++ {
		t.VPNs = append(t.VPNs, add("vpn", i, cfg.VPNRate))
	}

	// Source load-balances flows across NATs.
	sim.ConnectSource(FlowHashRoute(cfg.NATs), t.NATs...)

	// NATs spread flows across firewalls. Salt the hash so a flow's NAT
	// choice and firewall choice are independent, as separate ECMP
	// stages would be.
	nFW := uint64(cfg.Firewalls)
	natRoute := func(p *packet.Packet) int {
		return int((p.Flow.Hash() * natStageSalt) % nFW)
	}
	for _, n := range t.NATs {
		sim.Connect(n, natRoute, t.Firewalls...)
	}

	// Firewalls: rule-matched flows to a Monitor, others to a VPN.
	ruleSet := make(map[uint16]bool, len(cfg.RulePorts))
	for _, p := range cfg.RulePorts {
		ruleSet[p] = true
	}
	nMon := uint64(cfg.Monitors)
	nVPN := uint64(cfg.VPNs)
	fwDown := append(append([]string{}, t.Monitors...), t.VPNs...)
	fwRoute := func(p *packet.Packet) int {
		h := p.Flow.Hash() * fwStageSalt
		if ruleSet[p.Flow.DstPort] {
			return int(h % nMon)
		}
		return cfg.Monitors + int(h%nVPN)
	}
	for _, f := range t.Firewalls {
		sim.Connect(f, fwRoute, fwDown...)
	}

	// Monitors forward everything to a VPN.
	monRoute := func(p *packet.Packet) int {
		return int((p.Flow.Hash() * monStageSalt) % nVPN)
	}
	for _, m := range t.Monitors {
		sim.Connect(m, monRoute, t.VPNs...)
	}

	// VPNs are egress.
	for _, v := range t.VPNs {
		sim.Connect(v, func(*packet.Packet) int { return Egress })
	}
	return t
}

// NATOf returns which NAT instance the flow is load-balanced to.
func (t *EvalTopology) NATOf(ft packet.FiveTuple) string {
	return t.NATs[ft.Hash()%uint64(len(t.NATs))]
}

// FirewallOf returns which firewall instance the flow traverses.
func (t *EvalTopology) FirewallOf(ft packet.FiveTuple) string {
	return t.Firewalls[(ft.Hash()*natStageSalt)%uint64(len(t.Firewalls))]
}

// PathOf returns the full component path a flow takes through the
// evaluation topology (NAT, firewall, optional monitor, VPN).
func (t *EvalTopology) PathOf(ft packet.FiveTuple) []string {
	out := []string{t.NATOf(ft), t.FirewallOf(ft)}
	h := ft.Hash() * fwStageSalt
	web := false
	for _, p := range t.Config.RulePorts {
		if p == ft.DstPort {
			web = true
			break
		}
	}
	if web {
		out = append(out, t.Monitors[h%uint64(len(t.Monitors))])
		h = ft.Hash() * monStageSalt
	}
	out = append(out, t.VPNs[h%uint64(len(t.VPNs))])
	return out
}

// ChainSpec describes one NF in a simple linear chain.
type ChainSpec struct {
	Name string
	Kind string
	Rate simtime.Rate
}

// BuildChain constructs a linear chain source → nf1 → nf2 → ... → egress,
// used by the motivation examples (§1, §2) and many tests.
func BuildChain(hooks Hooks, seed int64, specs ...ChainSpec) *Sim {
	sim := New(hooks)
	for i, sp := range specs {
		sim.AddNF(NFConfig{
			Name:       sp.Name,
			Kind:       sp.Kind,
			PeakRate:   sp.Rate,
			JitterFrac: 0.05,
			Seed:       seed + int64(i)*104729,
		})
	}
	sim.ConnectSource(func(*packet.Packet) int { return 0 }, specs[0].Name)
	for i := 0; i < len(specs)-1; i++ {
		sim.Connect(specs[i].Name, func(*packet.Packet) int { return 0 }, specs[i+1].Name)
	}
	sim.Connect(specs[len(specs)-1].Name, func(*packet.Packet) int { return Egress })
	return sim
}

package microscope

import (
	"fmt"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
)

// NFSpec declares one NF instance for a custom deployment.
type NFSpec struct {
	Name string
	Kind string
	Rate Rate
	// QueueCap overrides the input ring size (1024 if 0).
	QueueCap int
}

// Chooser selects the next hop for a flow among a fixed set of declared
// downstream NFs, by name. It must return one of the names passed to
// Connect / Source (routing is flow-level, as NFV load balancing is).
type Chooser func(FiveTuple) string

// Builder assembles a custom NF DAG: any topology the paper's model allows —
// one bounded input queue per NF, flow-level routing between NFs, traffic
// sources at the roots, egress at the leaves.
type Builder struct {
	seed    int64
	specs   []NFSpec
	srcTo   []string
	srcPick Chooser
	links   map[string][]string
	pickers map[string]Chooser
}

// NewBuilder starts a custom deployment.
func NewBuilder(seed int64) *Builder {
	return &Builder{
		seed:    seed,
		links:   make(map[string][]string),
		pickers: make(map[string]Chooser),
	}
}

// AddNF declares an NF instance.
func (b *Builder) AddNF(spec NFSpec) *Builder {
	b.specs = append(b.specs, spec)
	return b
}

// Source wires the traffic source to the named NFs; pick chooses per flow
// (defaults to flow-hash balancing when nil).
func (b *Builder) Source(pick Chooser, to ...string) *Builder {
	b.srcPick = pick
	b.srcTo = to
	return b
}

// Connect wires an NF to downstream NFs; pick chooses per flow (defaults to
// flow-hash balancing when nil). NFs never connected are egress.
func (b *Builder) Connect(from string, pick Chooser, to ...string) *Builder {
	b.links[from] = to
	b.pickers[from] = pick
	return b
}

// Build constructs the deployment with the collector attached. It panics
// on an invalid graph; BuildE is the error-returning form.
func (b *Builder) Build() *Deployment {
	d, err := b.BuildE()
	if err != nil {
		panic(err)
	}
	return d
}

// BuildE validates the declared graph and constructs the deployment,
// returning an error instead of panicking: the form for callers assembling
// topologies from configuration rather than source code.
func (b *Builder) BuildE() (*Deployment, error) {
	if len(b.specs) == 0 {
		return nil, fmt.Errorf("microscope: builder needs at least one NF")
	}
	if len(b.srcTo) == 0 {
		return nil, fmt.Errorf("microscope: builder needs Source(...) wiring")
	}
	declared := make(map[string]bool, len(b.specs))
	for _, sp := range b.specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("microscope: NF needs a name")
		}
		if declared[sp.Name] {
			return nil, fmt.Errorf("microscope: NF %q declared twice", sp.Name)
		}
		declared[sp.Name] = true
		if sp.Rate <= 0 {
			return nil, fmt.Errorf("microscope: NF %q needs a positive rate", sp.Name)
		}
	}
	for _, to := range b.srcTo {
		if !declared[to] {
			return nil, fmt.Errorf("microscope: Source wired to undeclared NF %q", to)
		}
	}
	for from, tos := range b.links {
		if !declared[from] {
			return nil, fmt.Errorf("microscope: Connect from undeclared NF %q", from)
		}
		for _, to := range tos {
			if !declared[to] {
				return nil, fmt.Errorf("microscope: NF %q wired to undeclared NF %q", from, to)
			}
		}
	}
	col := collector.New(collector.Config{})
	sim := nfsim.New(col)
	for i, sp := range b.specs {
		sim.AddNF(nfsim.NFConfig{
			Name:       sp.Name,
			Kind:       sp.Kind,
			PeakRate:   sp.Rate,
			JitterFrac: 0.05,
			QueueCap:   sp.QueueCap,
			Seed:       b.seed + int64(i)*104729,
		})
	}

	sim.ConnectSource(routeFunc(b.srcPick, b.srcTo), b.srcTo...)
	for _, sp := range b.specs {
		to := b.links[sp.Name]
		if len(to) == 0 {
			sim.Connect(sp.Name, func(*packet.Packet) int { return nfsim.Egress })
			continue
		}
		sim.Connect(sp.Name, routeFunc(b.pickers[sp.Name], to), to...)
	}

	return &Deployment{sim: sim, col: col}, nil
}

// routeFunc converts a name-based Chooser into the simulator's index-based
// routing, falling back to flow-hash balancing.
func routeFunc(pick Chooser, to []string) nfsim.RouteFunc {
	idx := make(map[string]int, len(to))
	for i, name := range to {
		idx[name] = i
	}
	if pick == nil {
		return nfsim.FlowHashRoute(len(to))
	}
	return func(p *packet.Packet) int {
		name := pick(p.Flow)
		i, ok := idx[name]
		if !ok {
			panic(fmt.Sprintf("microscope: chooser returned %q, not a declared downstream of this hop", name))
		}
		return i
	}
}

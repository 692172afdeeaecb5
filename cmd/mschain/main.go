// Command mschain runs a simulated NF deployment with the Microscope
// runtime collector attached and writes the collected trace to a directory
// that msdiag can analyze.
//
// Scenarios:
//
//	-topo chain   source → fw → vpn linear chain
//	-topo eval    the paper's 16-NF evaluation topology (Figure 10)
//
// Problems can be injected to have something to diagnose:
//
//	mschain -topo eval -rate 1.2 -dur 100ms -interrupt nat1@20ms:800us \
//	        -burst 30ms:1500 -bug fw2 -out /tmp/trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"microscope/internal/collector"
	"microscope/internal/faults"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
	"microscope/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mschain: ")

	var (
		topoName  = flag.String("topo", "eval", "topology: chain or eval")
		rateMpps  = flag.Float64("rate", 1.2, "offered load in Mpps")
		dur       = flag.Duration("dur", 100*time.Millisecond, "traffic duration (wall-clock units map 1:1 to simulated time)")
		flows     = flag.Int("flows", 2048, "distinct background flows")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("out", "trace", "output trace directory")
		burstSpec = flag.String("burst", "", "inject burst: <at>:<packets>, e.g. 30ms:1500")
		intSpec   = flag.String("interrupt", "", "inject interrupt: <nf>@<at>:<dur>, e.g. nat1@20ms:800us")
		bugNF     = flag.String("bug", "", "inject slow-path bug at this firewall (eval topo)")
		skewSpec  = flag.String("skew", "", "skew a component's clock: <nf>:<offset>, e.g. fw2:300us (simulates unsynchronized machines)")
		faultSpec = flag.String("faults", "", "corrupt the trace before writing: drop=0.05,seed=7,dup=0.01,skew=fw2:300us:50 (keys: seed,drop,burst,burstlen,trunc,dup,reorder,delay,skew)")
		loadWL    = flag.String("workload", "", "replay a saved workload file instead of generating traffic")
		loadCSV   = flag.String("csv", "", "replay a CSV trace (time_us,src_ip,dst_ip,src_port,dst_port,proto)")
		saveWL    = flag.String("save-workload", "", "also save the generated workload for exact replay")
	)
	flag.Parse()

	col := collector.New(collector.Config{})
	var sim *nfsim.Sim
	var topo *nfsim.EvalTopology

	switch *topoName {
	case "chain":
		sim = nfsim.BuildChain(col, *seed,
			nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1.0)},
			nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
			nfsim.ChainSpec{Name: "vpn1", Kind: "vpn", Rate: simtime.MPPS(0.7)},
		)
	case "eval":
		topo = nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: *seed})
		sim = topo.Sim
	default:
		log.Fatalf("unknown topology %q", *topoName)
	}

	mix := traffic.NewMix(traffic.MixConfig{Flows: *flows, Seed: *seed + 1})
	simDur := simtime.Duration(dur.Nanoseconds())
	var sched *traffic.Schedule
	switch {
	case *loadWL != "":
		var err error
		if sched, err = traffic.ReadFile(*loadWL); err != nil {
			log.Fatal(err)
		}
		simDur = simtime.Duration(sched.End()) + simtime.Millisecond
		log.Printf("replaying %d packets from %s", sched.Len(), *loadWL)
	case *loadCSV != "":
		f, err := os.Open(*loadCSV)
		if err != nil {
			log.Fatal(err)
		}
		sched, err = traffic.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		simDur = simtime.Duration(sched.End()) + simtime.Millisecond
		log.Printf("replaying %d packets from CSV %s", sched.Len(), *loadCSV)
	default:
		sched = traffic.Generate(mix, traffic.ScheduleConfig{
			Rate:     simtime.MPPS(*rateMpps),
			Duration: simDur,
			Seed:     *seed + 2,
		})
	}

	if *burstSpec != "" {
		at, n := parseBurst(*burstSpec)
		sched.InjectBurst(traffic.BurstSpec{ID: 1, At: at, Flow: mix.Flows[0].Tuple, Count: n})
		log.Printf("injected burst of %d packets at %v", n, at)
	}
	if *intSpec != "" {
		nf, at, d := parseInterrupt(*intSpec)
		sim.InjectInterrupt(nf, at, d, "cli")
		log.Printf("injected %v interrupt at %s at %v", d, nf, at)
	}
	if *bugNF != "" {
		trigger := packet.FiveTuple{
			SrcIP: packet.IPFromOctets(100, 0, 0, 1), DstIP: packet.IPFromOctets(32, 0, 0, 1),
			SrcPort: 2004, DstPort: 6004, Proto: packet.ProtoTCP,
		}
		sim.InjectBug(*bugNF, &nfsim.SlowPath{
			Match: func(ft packet.FiveTuple) bool {
				return ft.SrcIP == trigger.SrcIP && ft.SrcPort >= 2000 && ft.SrcPort <= 2008
			},
			Rate: simtime.MPPS(0.05),
		}, "cli")
		sched.InjectFlow(trigger, simtime.Time(simDur/4), 100, 5*simtime.Microsecond, 64)
		log.Printf("injected slow-path bug at %s with trigger flow %v", *bugNF, trigger)
	}

	if *saveWL != "" {
		if err := sched.WriteFile(*saveWL); err != nil {
			log.Fatal(err)
		}
		log.Printf("workload saved to %s", *saveWL)
	}

	sim.LoadSchedule(sched)
	start := time.Now() //mslint:allow nondet wall-clock progress banner, not diagnosis output
	sim.Run(simtime.Time(simDur) + simtime.Time(50*simtime.Millisecond))
	tr := col.Trace(collector.MetaOf(sim))

	if *skewSpec != "" {
		parts := strings.SplitN(*skewSpec, ":", 2)
		if len(parts) != 2 {
			fatalUsage("skew must be <nf>:<offset>")
		}
		off := simtime.Duration(parseTime(parts[1]))
		tr = tracestore.SkewTrace(tr, parts[0], off)
		log.Printf("skewed %s clock by %v", parts[0], off)
	}

	if *faultSpec != "" {
		fcfg, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		var fst faults.Stats
		tr, fst = faults.Inject(tr, fcfg)
		log.Print(fst)
	}

	if err := collector.WriteTrace(*out, tr); err != nil {
		log.Fatal(err)
	}
	st := col.Stats()
	elapsed := time.Since(start).Round(time.Millisecond) //mslint:allow nondet wall-clock progress banner, not diagnosis output
	fmt.Printf("simulated %v of traffic (%d packets scheduled) in %v\n",
		simDur, sched.Len(), elapsed)
	fmt.Printf("collected %d batch records, %d packet entries, %.2f B/packet\n",
		len(tr.Records), st.PacketsSeen, st.BytesPerPacket())
	fmt.Printf("trace written to %s\n", *out)
}

func parseBurst(s string) (simtime.Time, int) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		fatalUsage("burst must be <at>:<packets>")
	}
	at := parseTime(parts[0])
	n, err := strconv.Atoi(parts[1])
	if err != nil || n <= 0 {
		fatalUsage("bad burst size")
	}
	return at, n
}

func parseInterrupt(s string) (string, simtime.Time, simtime.Duration) {
	atSplit := strings.SplitN(s, "@", 2)
	if len(atSplit) != 2 {
		fatalUsage("interrupt must be <nf>@<at>:<dur>")
	}
	parts := strings.SplitN(atSplit[1], ":", 2)
	if len(parts) != 2 {
		fatalUsage("interrupt must be <nf>@<at>:<dur>")
	}
	return atSplit[0], parseTime(parts[0]), simtime.Duration(parseTime(parts[1]))
}

func parseTime(s string) simtime.Time {
	d, err := time.ParseDuration(s)
	if err != nil {
		fatalUsage("bad duration " + s)
	}
	return simtime.Time(d.Nanoseconds())
}

func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "mschain:", msg)
	flag.Usage()
	os.Exit(2)
}

// Wild example: the paper's §6.5 study — run the full 16-NF evaluation
// topology at high load with NO injected problems, diagnose the worst
// 99.9th-percentile latency packets, and see what naturally emerges:
// propagated victims, highly variable culprit→victim time gaps, and uneven
// impact across equally-loaded NF instances.
//
//	go run ./examples/wild
package main

import (
	"fmt"
	"sort"

	"microscope"
)

func main() {
	// Rates leave enough headroom that queues drain between natural
	// episodes; spikes model cache misses / context switches so problems
	// emerge without injection (the §6.5 setting).
	dep := microscope.NewEvalDeployment(microscope.EvalTopologyConfig{
		Seed:         99,
		NATRate:      microscope.MPPS(0.6),
		FirewallRate: microscope.MPPS(0.5),
		MonitorRate:  microscope.MPPS(0.45),
		VPNRate:      microscope.MPPS(0.55),
		SpikeProb:    0.0005,
		SpikeFactor:  80,
	})
	fmt.Printf("deployed the Figure 10 topology: %d NFs\n", len(dep.NFs()))

	wl := microscope.NewWorkload(microscope.WorkloadConfig{
		Rate:     microscope.MPPS(1.6),
		Duration: 60 * microscope.Millisecond,
		Flows:    4096,
		Seed:     100,
	})
	dep.Replay(wl)
	dep.Run(200 * microscope.Millisecond)
	st := dep.Stats()
	fmt.Printf("replayed %d packets at 1.6 Mpps; %d delivered, %d dropped\n",
		st.Emitted, st.Delivered, st.Dropped)

	s := &microscope.PipelineSpec{}
	s.Diagnosis.VictimPercentile, s.Diagnosis.MaxVictims = 99.9, 500
	rep := microscope.Diagnose(dep.Trace(), microscope.WithSpec(s))
	fmt.Printf("\ndiagnosed %d tail-latency victims\n", len(rep.Diagnoses))

	// How many victims were hurt by a different NF than the one where
	// they queued? (Paper: 21.7% of problems propagate.)
	propagated := 0
	var gaps []float64
	for i := range rep.Diagnoses {
		d := &rep.Diagnoses[i]
		if len(d.Causes) == 0 {
			continue
		}
		if d.Causes[0].Comp != d.Victim.Comp {
			propagated++
		}
		gaps = append(gaps, d.Victim.ArriveAt.Sub(d.Causes[0].At).Millis())
	}
	fmt.Printf("victims whose top culprit is another component: %d of %d\n",
		propagated, len(rep.Diagnoses))

	if len(gaps) > 0 {
		sort.Float64s(gaps)
		fmt.Printf("culprit→victim time gap: median %.2f ms, p90 %.2f ms, max %.2f ms\n",
			gaps[len(gaps)/2], gaps[len(gaps)*9/10], gaps[len(gaps)-1])
		fmt.Println("(a fixed correlation window cannot span this spread — §6.5)")
	}

	fmt.Println()
	fmt.Print(rep.Render())
}

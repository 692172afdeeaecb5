package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"microscope"
	"microscope/internal/collector"
	"microscope/internal/patterns"
	"microscope/internal/pipeline"
)

// msdiagPatterns is msdiag's default -patterns: how many rows of the
// pattern table it prints.
const msdiagPatterns = 15

// genOfflineTrace simulates the offline-batch trace and writes it where
// msdiag reads it. The traffic and faults are those of offlineTraceSeed;
// seed moves every timestamp on by up to a millisecond (see
// offlineTraceSeed for why no more than that).
func genOfflineTrace(dir string, seed int64, dur microscope.Duration) (*lap, error) {
	l := genLap(offlineTraceSeed, dur)
	shift := microscope.Duration(uint64(seed)%1000) * microscope.Microsecond
	l.recs = shifted(nil, l.recs, shift)
	for i := range l.inj {
		l.inj[i].At = l.inj[i].At.Add(shift)
	}
	return l, collector.WriteTrace(dir, &collector.Trace{Meta: l.meta, Records: l.recs})
}

// diagRun is one timed msdiag child.
type diagRun struct {
	wall time.Duration
	usage
	// lines are the output lines that depend on the diagnosis alone.
	lines []string
}

// runMsdiag times one msdiag run over dir from start to exit.
func runMsdiag(bin, dir string, maxVictims int) (*diagRun, error) {
	cmd := exec.Command(filepath.Join(bin, "msdiag"), "-trace", dir,
		"-max-victims", fmt.Sprint(maxVictims), "-workers", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t := now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	onExit(func() { cmd.Process.Kill() }) //nolint:errcheck // already gone is fine
	err := cmd.Wait()
	r := &diagRun{wall: since(t)}
	if err != nil {
		return nil, fmt.Errorf("msdiag: %v\n%s", err, stderr.String())
	}
	r.usage = rusageOf(cmd.ProcessState.SysUsage().(*syscall.Rusage))
	r.lines = diagnosisLines(stdout.String())
	return r, nil
}

// diagnosisLines keeps the lines of msdiag's output that must repeat
// exactly: the victim count and everything from the aggregation summary
// on (the pattern table). The lines before carry timings.
func diagnosisLines(out string) []string {
	var keep []string
	table := false
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "aggregated "):
			table = true
			keep = append(keep, line)
		case table || strings.HasPrefix(line, "diagnosed "):
			keep = append(keep, line)
		}
	}
	return keep
}

// offlineReference runs the same diagnosis in-process, with a span around
// each layer: ReadTrace, then the pipeline's own stages. It returns the
// lines msdiag must print.
func offlineReference(dir string, maxVictims int, tr *tracer) ([]string, *pipeline.Result, error) {
	rs, err := parsedSpec(offlineSpec(maxVictims))
	if err != nil {
		return nil, nil, err
	}
	t := now()
	root := tr.open("inproc.body", -1, t, -1)
	trace, err := collector.ReadTrace(dir)
	if err != nil {
		return nil, nil, err
	}
	tr.add("collector.read", root, t, since(t), -1, -1)
	res := pipeline.Run(trace, rs.PipelineConfig(nil))
	for _, s := range res.Spans {
		if s.Kind == "stage" {
			tr.add(stageSpan[s.Name], root, s.Start, s.Dur, -1, -1)
		}
	}
	t = now()
	shown := res.Patterns[:min(len(res.Patterns), msdiagPatterns)]
	table := strings.Split(strings.TrimRight(patterns.Render(shown), "\n"), "\n")
	tr.add("patterns.render", root, t, since(t), -1, -1)
	tr.end(root, now())
	lines := []string{
		fmt.Sprintf("diagnosed %d victims", len(res.Diagnoses)),
		fmt.Sprintf("aggregated %d causal relations into %d patterns", res.Relations, len(res.Patterns)),
	}
	if len(shown) > 0 {
		lines = append(lines, table...)
	}
	return lines, res, nil
}

// offlineHits counts the injected faults some diagnosis blames: a cause
// at the fault's component with its onset within hitSlack of the fault.
func offlineHits(l *lap, res *pipeline.Result) (injections, hits int) {
	for _, in := range l.inj {
		injections++
		lo, hi := in.At.Add(-hitSlack), in.At.Add(in.Dur+hitSlack)
	search:
		for i := range res.Diagnoses {
			for _, c := range res.Diagnoses[i].Causes {
				if c.Comp == in.Comp && c.At >= lo && c.At <= hi {
					hits++
					break search
				}
			}
		}
	}
	return injections, hits
}

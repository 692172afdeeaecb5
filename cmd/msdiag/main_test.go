package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"microscope"
	"microscope/internal/collector"
)

// writeEvalTrace writes a small eval-topology trace with an fw2 interrupt
// to a trace directory and returns it.
func writeEvalTrace(t *testing.T) string {
	t.Helper()
	dep := microscope.NewEvalDeployment(microscope.EvalTopologyConfig{Seed: 3})
	wl := microscope.NewWorkload(microscope.WorkloadConfig{
		Rate: microscope.MPPS(0.8), Duration: 4 * microscope.Millisecond, Seed: 3,
	})
	dep.InjectInterrupt("fw2", microscope.Time(2*microscope.Millisecond), 600*microscope.Microsecond)
	dep.Replay(wl)
	dep.Run(20 * microscope.Millisecond)
	dir := filepath.Join(t.TempDir(), "trace")
	if err := collector.WriteTrace(dir, dep.Trace()); err != nil {
		t.Fatal(err)
	}
	return dir
}

// timings matches what msdiag prints that depends on the clock: the store
// line's build time and the pipeline's stage times.
var timings = regexp.MustCompile(`(?m)^(tracestore: .*) \([^)]*\)$|^pipeline \(.*$`)

// diagnose runs msdiag with args and returns its output without timings.
func diagnose(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	return timings.ReplaceAllString(out.String(), "$1")
}

// TestNetMedicOutput pins msdiag -netmedic: the baseline's rankings, taken
// from the records msdiag decodes for it, are those msdiag printed when
// every store was built from records (the digest was taken then; a
// baseline handed no records ranks every component at 0). Everything
// before them is what msdiag prints without the flag, from the store it
// loads straight from the trace file's frames.
func TestNetMedicOutput(t *testing.T) {
	const want = "ef188d54d199d165"
	dir := writeEvalTrace(t)
	plain := diagnose(t, "-trace", dir, "-max-victims", "100")
	withNM := diagnose(t, "-trace", dir, "-max-victims", "100", "-netmedic", "-netmedic-window", "500us")
	diag, nm, ok := strings.Cut(withNM, "\nNetMedic baseline")
	if !ok {
		t.Fatalf("no NetMedic block in\n%s", withNM)
	}
	if diag != plain {
		t.Errorf("with -netmedic the diagnosis reads\n%s\nwithout it\n%s", diag, plain)
	}
	if n := strings.Count(nm, "\n  victim #"); n != 5 {
		t.Errorf("NetMedic ranked %d victims, want 5:\n%s", n, nm)
	}
	sum := sha256.Sum256([]byte(nm))
	if got := hex.EncodeToString(sum[:])[:16]; got != want {
		t.Errorf("NetMedic block digest %s, want %s:\n%s", got, want, nm)
	}
}

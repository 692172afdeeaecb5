package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTreeIsClean is the repo-wide smoke test: mslint over the whole
// module must exit 0. A failure here means a new finding landed without
// a fix or an //mslint:allow annotation.
func TestTreeIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"microscope/..."}, &out, &errb); code != 0 {
		t.Fatalf("mslint exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

func TestListFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("mslint -list exited %d: %s", code, errb.String())
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		listed[strings.Fields(line)[0]] = true
	}
	// Exactly these seven: an analyzer deleted from the suite must not
	// come back through the list.
	want := []string{"compid", "containment", "ctxflow", "determinism", "obssafe", "sorttotal", "specconfig"}
	for _, name := range want {
		if !listed[name] {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
	if len(listed) != len(want) {
		t.Errorf("-list prints %d analyzers, want exactly %v:\n%s", len(listed), want, out.String())
	}
}

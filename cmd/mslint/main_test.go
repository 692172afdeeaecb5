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
	for _, name := range []string{"compid", "determinism", "obssafe", "sorttotal", "specconfig"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
}

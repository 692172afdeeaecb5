// Package lint assembles Microscope's static-analysis suite: custom
// analyzers that reject whole classes of determinism, layout and
// observability regressions at `make check` time, before any trace is
// replayed. See DESIGN.md §"Static analysis" for the invariant each
// analyzer protects.
package lint

import (
	"microscope/internal/lint/analysis"
	"microscope/internal/lint/compid"
	"microscope/internal/lint/containment"
	"microscope/internal/lint/ctxflow"
	"microscope/internal/lint/determinism"
	"microscope/internal/lint/obssafe"
	"microscope/internal/lint/sorttotal"
	"microscope/internal/lint/specconfig"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		compid.Analyzer,
		containment.Analyzer,
		ctxflow.Analyzer,
		determinism.Analyzer,
		obssafe.Analyzer,
		sorttotal.Analyzer,
		specconfig.Analyzer,
	}
}

// Package driver runs lint analyzers over loaded packages and applies the
// repo's suppression convention:
//
//	//mslint:allow <analyzer>[,<analyzer>...] <reason>
//
// An allow comment suppresses matching diagnostics on its own line and on
// the line immediately below it (so it works both as a trailing comment
// and as a standalone comment above the flagged statement). The reason
// text is mandatory: an allow comment without one, or one naming an
// unknown analyzer, is itself reported as a diagnostic (analyzer
// "mslint") and cannot be suppressed.
package driver

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"microscope/internal/lint/analysis"
	"microscope/internal/lint/loader"
)

// MetaName is the pseudo-analyzer name under which the driver reports
// malformed allow comments.
const MetaName = "mslint"

// Run executes every analyzer over every package and returns the
// surviving diagnostics sorted by position.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var all []analysis.Diagnostic
	for _, p := range pkgs {
		ds, err := RunPackage(p, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, ds...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Position, all[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}

// RunPackage executes the analyzers over one package, filtering
// diagnostics through the package's allow comments.
func RunPackage(p *loader.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	names := map[string]string{} // accepted token -> canonical name
	for _, a := range analyzers {
		names[a.Name] = a.Name
		for _, al := range a.Aliases {
			names[al] = a.Name
		}
	}
	allows, metaDiags := scanAllows(p, names)

	var out []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
		}
		var raw []analysis.Diagnostic
		pass.Report = func(d analysis.Diagnostic) { raw = append(raw, d) }
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, p.ImportPath, err)
		}
		for _, d := range raw {
			if !allows.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	return append(out, metaDiags...), nil
}

// allowKey locates one allow grant: a (file, line) pair authorising one
// canonical analyzer name.
type allowKey struct {
	file string
	line int
	name string
}

type allowSet map[allowKey]bool

func (s allowSet) suppressed(d analysis.Diagnostic) bool {
	return s[allowKey{d.Position.Filename, d.Position.Line, d.Analyzer}] ||
		s[allowKey{d.Position.Filename, d.Position.Line - 1, d.Analyzer}]
}

// scanAllows walks every comment in the package, recording allow grants
// and reporting malformed allow comments.
func scanAllows(p *loader.Package, names map[string]string) (allowSet, []analysis.Diagnostic) {
	grants := allowSet{}
	var meta []analysis.Diagnostic
	metaDiag := func(pos token.Pos, format string, args ...any) {
		meta = append(meta, analysis.Diagnostic{
			Analyzer: MetaName,
			Pos:      pos,
			Position: p.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//mslint:allow")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					metaDiag(c.Pos(), "mslint:allow comment names no analyzer")
					continue
				}
				if len(fields) < 2 {
					metaDiag(c.Pos(), "mslint:allow %s has no reason; state why the finding is intentional", fields[0])
					continue
				}
				for _, tok := range strings.Split(fields[0], ",") {
					canon, known := names[tok]
					if !known {
						metaDiag(c.Pos(), "mslint:allow names unknown analyzer %q", tok)
						continue
					}
					grants[allowKey{pos.Filename, pos.Line, canon}] = true
				}
			}
		}
	}
	return grants, meta
}

// Package analysis is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough surface (Analyzer, Pass,
// Diagnostic) for Microscope's in-tree lint suite. The container this repo
// builds in is hermetic — no module proxy — so the x/tools framework is
// re-implemented here on the standard library (go/ast, go/types) instead
// of vendored. Analyzers written against this API follow the upstream
// shape: a Run function receives a type-checked package via *Pass and
// reports position-anchored diagnostics.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //mslint:allow comments. Lower-case, no spaces.
	Name string
	// Aliases are extra names accepted in //mslint:allow comments
	// (e.g. "nondet" for the determinism analyzer).
	Aliases []string
	// Doc is a one-paragraph description: the invariant protected and
	// why it matters.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic. The driver installs a collector
	// here; analyzers call Reportf instead of using it directly.
	Report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}

// ImportsPathSuffix reports whether the package directly imports a package
// whose import path is path or ends with "/"+path. Suffix matching lets
// analyzer gates ("polices packages that can see tracestore") work for
// both the real module paths and analysistest fixtures.
func (p *Pass) ImportsPathSuffix(path string) bool {
	if p.Pkg == nil {
		return false
	}
	for _, imp := range p.Pkg.Imports() {
		ip := imp.Path()
		if ip == path || strings.HasSuffix(ip, "/"+path) {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

// String renders the conventional "file:line:col: message (analyzer)"
// form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
}

// CalleeFunc resolves the called function or method of call, or nil when
// the callee is not a static function (e.g. a call through a func value
// that cannot be traced to a declaration, or a type conversion).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(fun.Sel)
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is the package-level function (or method —
// any func object) named name declared in the package with import path
// pkgPath.
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// NamedFrom reports whether t (after dereferencing one pointer level) is
// the named type name declared in a package whose path is pkgPath or ends
// with "/"+pkgPath.
func NamedFrom(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	ip := obj.Pkg().Path()
	return ip == pkgPath || strings.HasSuffix(ip, "/"+pkgPath)
}

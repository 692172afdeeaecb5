// Package ctxflow keeps cancellation threaded end to end. Two rules:
//
//  1. Library packages must not mint fresh context roots —
//     context.Background() / context.TODO() belong to main and to tests;
//     anywhere else they silently detach the callee from the caller's
//     deadline and the drain/shutdown machinery built on it.
//  2. In package main, where rule 1 does not apply, a function that
//     receives a ctx must forward it: inside it, and inside any func
//     literal nested in it, a fresh Background()/TODO() passed directly as
//     an argument to a callee outside package context is a finding.
//
// Deriving from a fresh root (context.WithTimeout(context.Background(),
// ...)) passes rule 2: its callee is in package context, and it is how a
// main bounds a drain that must outlive an already-cancelled ctx.
package ctxflow

import (
	"go/ast"
	"go/types"

	"microscope/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:    "ctxflow",
	Aliases: []string{"ctx"},
	Doc: "no context.Background()/TODO() in library packages; in main, a " +
		"function that receives a ctx must forward it instead of passing a " +
		"fresh root to a callee",
	Run: run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if root := freshRoot(pass, n); root != "" && !isMain {
					pass.Reportf(n.Pos(),
						"context.%s() in a library package: accept a ctx from the caller so cancellation reaches this path", root)
				}
			case *ast.FuncDecl:
				if isMain && n.Body != nil && hasCtxParam(pass, n.Type) {
					checkForward(pass, n.Name.Name, n.Body)
					return false
				}
			case *ast.FuncLit:
				if isMain && hasCtxParam(pass, n.Type) {
					checkForward(pass, "func literal", n.Body)
					return false
				}
			}
			return true
		})
	}
	return nil
}

// checkForward applies rule 2 to the body of name, a function that
// received a ctx, including every func literal nested in it.
func checkForward(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
			return true
		}
		for _, arg := range call.Args {
			if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
				if root := freshRoot(pass, inner); root != "" {
					pass.Reportf(inner.Pos(),
						"%s receives a ctx but passes context.%s() to %s: forward the ctx so cancellation propagates",
						name, root, types.ExprString(call.Fun))
				}
			}
		}
		return true
	})
}

// freshRoot returns "Background" or "TODO" when call mints a root
// context, and "" otherwise.
func freshRoot(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if analysis.IsPkgFunc(fn, "context", "Background") || analysis.IsPkgFunc(fn, "context", "TODO") {
		return fn.Name()
	}
	return ""
}

// hasCtxParam reports whether the function type takes a context.Context.
func hasCtxParam(pass *analysis.Pass, typ *ast.FuncType) bool {
	for _, field := range typ.Params.List {
		if analysis.NamedFrom(pass.TypeOf(field.Type), "context", "Context") {
			return true
		}
	}
	return false
}

// Package specconfig enforces the configuration-boundary contract that
// the declarative pipeline spec introduced: library packages are
// configured by data (spec documents and Config structs), never by
// ambient process state. Only binaries under cmd/ parse the command line
// and the environment; an internal package that reaches for flag.* or
// os.Getenv acquires configuration the serving tier cannot express in a
// tenant spec, cannot validate, and cannot isolate between tenants.
//
// The analyzer flags, in every non-main package:
//   - any call into the flag package (flag.String, flag.Parse,
//     flag.NewFlagSet, FlagSet methods, ...);
//   - environment reads: os.Getenv, os.LookupEnv, os.Environ,
//     os.ExpandEnv.
//
// Genuine exceptions (a test helper gated on an env toggle, say) carry
// an //mslint:allow specconfig annotation with a reason.
package specconfig

import (
	"go/ast"

	"microscope/internal/lint/analysis"
)

// Analyzer is the configuration-boundary checker.
var Analyzer = &analysis.Analyzer{
	Name: "specconfig",
	Doc: "flags flag.* and os.Getenv use outside cmd/ binaries; library " +
		"packages are configured through specs and Config structs, not ambient process state",
	Run: run,
}

// envFuncs are the os functions that read ambient environment state.
var envFuncs = map[string]bool{
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
	"ExpandEnv": true,
}

func run(pass *analysis.Pass) error {
	// Binaries own the process boundary: they parse flags and the
	// environment and hand the result to libraries as explicit config.
	if pass.Pkg.Name() == "main" {
		return nil
	}
	if !pass.ImportsPathSuffix("flag") && !pass.ImportsPathSuffix("os") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "flag":
				pass.Reportf(call.Pos(),
					"flag.%s in library package %s: only cmd/ binaries parse the command line; take the value via a spec or Config field", fn.Name(), pass.Pkg.Path())
			case "os":
				if envFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"os.%s in library package %s: only cmd/ binaries read the environment; take the value via a spec or Config field", fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}

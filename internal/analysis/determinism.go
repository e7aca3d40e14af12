package analysis

import (
	"go/ast"
	"go/types"
)

// detPackages enrolls the packages whose every output must be a pure
// function of their inputs and Philox (stream, counter) pairs: the
// solver cores, the claiming loop that hands them iteration indices, the
// outer loop that decides when they stop, the sharded backend, the alias
// sampler and the generator itself. The paper's convergence claims are
// only testable because replays are bit-exact; one stray wall-clock read
// or math/rand draw silently breaks every replay-based test downstream.
var detPackages = []string{
	"internal/claim",
	"internal/outer",
	"internal/core",
	"internal/kaczmarz",
	"internal/lsq",
	"internal/distmem",
	"internal/alias",
	"internal/rng",
}

// Determinism rejects nondeterminism sources in the deterministic
// package set: importing math/rand (all randomness must flow through
// internal/rng Philox streams), reading the wall clock via time.Now or
// time.Since, and ranging over maps (iteration order is randomized by
// the runtime). A range-over-map whose order provably cannot reach any
// output may be suppressed with `//asyrgs:orderindep <why>`.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "disallow math/rand, time.Now/Since and map iteration in packages " +
		"whose outputs must be pure functions of Philox (stream, counter) pairs",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	pkg := pass.Pkg
	if !pkg.PathIn(detPackages...) && !pkg.OptedIn("determinism") {
		return nil
	}
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			switch impPath(imp) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(),
					"deterministic package imports %s; all randomness must flow through internal/rng Philox streams",
					impPath(imp))
			}
		}
	}
	pass.WalkStack(func(n ast.Node, _ []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if pkgOf(pkg, n.X) == "time" && (n.Sel.Name == "Now" || n.Sel.Name == "Since") {
				pass.Reportf(n.Pos(),
					"wall-clock read time.%s in deterministic package; timings belong to callers outside the deterministic core",
					n.Sel.Name)
			}
		case *ast.RangeStmt:
			t := pkg.Info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap && !pkg.DirectiveAt(n.Pos(), "orderindep") {
				pass.Reportf(n.Pos(),
					"map iteration order is nondeterministic; iterate a sorted key slice, or mark the loop //asyrgs:orderindep <why> if order cannot reach any output")
			}
		}
		return true
	})
	return nil
}

// impPath unquotes an import spec's path.
func impPath(imp *ast.ImportSpec) string {
	s := imp.Path.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}

// pkgOf resolves x to the import path of the package it names, or ""
// when x is not a package qualifier.
func pkgOf(pkg *Package, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// loopPackages enrolls the packages whose loops execute solver work,
// including the claiming loop the asynchronous solvers share and the
// outer loop every solve runs.
// Every registry method promises context cancellation; an unbounded
// loop that never observes ctx breaks that promise exactly where a
// stuck solve is most expensive (the serve admission gate holds a slot
// until the solver yields).
var loopPackages = []string{
	"internal/claim",
	"internal/outer",
	"internal/core",
	"internal/kaczmarz",
	"internal/lsq",
	"internal/krylov",
	"internal/distmem",
	"internal/method",
}

// CtxPoll requires every `for { ... }` loop (nil condition) in the
// solver packages to stay honestly terminable: the body must poll
// ctx.Err()/ctx.Done(), or be one of two provably bounded shapes that
// are accepted automatically — a CAS retry loop (the loop exits once
// the compare-and-swap lands) and a drain loop whose select has a
// default arm that returns or breaks. Loops bounded by other local
// progress (a claimed counter reaching its budget) carry a
// `//asyrgs:boundedloop <why>` directive.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc: "require unbounded for loops in solver packages to reach a " +
		"ctx.Err()/ctx.Done() check, a bounded CAS/drain shape, or a " +
		"//asyrgs:boundedloop justification",
	Run: runCtxPoll,
}

func runCtxPoll(pass *Pass) error {
	pkg := pass.Pkg
	if !pkg.PathIn(loopPackages...) && !pkg.OptedIn("ctxpoll") {
		return nil
	}
	pass.WalkStack(func(n ast.Node, _ []ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if pkg.DirectiveAt(loop.Pos(), "boundedloop") {
			return true
		}
		if loopIsCancellable(pkg, loop) {
			return true
		}
		pass.Reportf(loop.Pos(),
			"unbounded for loop never polls ctx.Err()/ctx.Done(); solver loops must stay cancellable (//asyrgs:boundedloop <why> if bounded by local progress)")
		return true
	})
	return nil
}

// loopIsCancellable scans the loop body for an accepted termination
// witness.
func loopIsCancellable(pkg *Package, loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// ctx.Err() / ctx.Done() / <-ctx.Done() on a context.Context.
			if n.Sel.Name == "Err" || n.Sel.Name == "Done" {
				if isContext(pkg.Info.TypeOf(n.X)) {
					found = true
				}
			}
			// CAS retry loop: terminates when the swap lands.
			if strings.HasPrefix(n.Sel.Name, "CompareAndSwap") {
				found = true
			}
		case *ast.Ident:
			if strings.HasPrefix(n.Name, "CompareAndSwap") {
				found = true
			}
		case *ast.SelectStmt:
			// Drain loop: a default arm that leaves the loop bounds it
			// by the queue's current backlog.
			for _, clause := range n.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok || cc.Comm != nil {
					continue
				}
				for _, s := range cc.Body {
					switch s := s.(type) {
					case *ast.ReturnStmt:
						found = true
					case *ast.BranchStmt:
						if s.Tok.String() == "break" {
							found = true
						}
					}
				}
			}
		}
		return !found
	})
	return found
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

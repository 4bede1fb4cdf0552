// Package ctxpropagation enforces the context discipline PR 2 threaded
// through the engine: a function that was handed a context.Context must not
// drop it on the floor by calling a non-Ctx dataset/engine variant, and
// internal code must not mint fresh root contexts with context.Background()
// or context.TODO() — that severs the cancellation chain, so a cancelled
// release keeps computing (exactly the class of silent drift the chaos soak
// exists to catch).
package ctxpropagation

import (
	"fmt"
	"go/ast"
	"strings"

	"upa/internal/analyzers/analysis"
)

// Analyzer is the ctxpropagation analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpropagation",
	Doc: "flags calls to non-Ctx dataset/engine variants from functions that " +
		"already have a context.Context parameter in scope, and " +
		"context.Background()/context.TODO() calls in internal non-test code",
	Run: run,
}

// ctxVariants maps each non-Ctx dataset/engine entry point to its
// context-accepting sibling. Matching is by callee name, so both
// method-style (d.Collect()) and function-style (mapreduce.ReduceByKey,
// core.Run) call sites are covered.
var ctxVariants = map[string]string{
	"Collect":     "CollectCtx",
	"Count":       "CountCtx",
	"Reduce":      "ReduceCtx",
	"ReduceByKey": "ReduceByKeyCtx",
	"Join":        "JoinCtx",
	"Run":         "RunCtx",
}

func run(pass *analysis.Pass) error {
	internal := strings.Contains(pass.PkgPath, "/internal/") || strings.HasPrefix(pass.PkgPath, "internal/")
	for _, file := range pass.Files {
		// ctxNames tracks the names of context.Context parameters of the
		// enclosing functions, so closures nested inside a ctx-taking
		// function count as "ctx in scope" too.
		var ctxNames []string

		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			if ft := analysis.FuncTypeOf(n); ft != nil {
				names := ctxParamNames(pass, ft)
				ctxNames = append(ctxNames, names...)
				// Recurse manually so we can pop on the way out.
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				}
				if body != nil {
					ast.Inspect(body, walk)
				}
				ctxNames = ctxNames[:len(ctxNames)-len(names)]
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name, ok := pass.CalleePkgFunc(call); ok && path == "context" {
				if (name == "Background" || name == "TODO") && internal {
					pass.Reportf(call.Pos(), fmt.Sprintf(
						"context.%s() in internal package %s severs the cancellation chain; accept and propagate a caller context (or annotate a boundary wrapper with //upa:allow)", name, pass.PkgPath))
				}
				return true
			}
			if len(ctxNames) == 0 {
				return true
			}
			name := calleeName(call)
			ctxName, isVariant := ctxVariants[name]
			if !isVariant {
				return true
			}
			if passesContext(call, ctxNames) {
				// The callee shares a name with a non-Ctx variant but is
				// already being handed a context (e.g. jobgraph's g.Run(ctx)).
				return true
			}
			pass.Reportf(call.Pos(), fmt.Sprintf(
				"call to %s ignores the context.Context %s in scope; use %s so cancellation reaches the engine", name, ctxNames[len(ctxNames)-1], ctxName))
			return true
		}
		ast.Inspect(file, walk)
	}
	return nil
}

// ctxParamNames returns the non-blank names of ft's context.Context
// parameters (empty when there are none).
func ctxParamNames(pass *analysis.Pass, ft *ast.FuncType) []string {
	if ft == nil || ft.Params == nil {
		return nil
	}
	var out []string
	for _, field := range ft.Params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok || pass.ImportPathOf(ident) != "context" {
			continue
		}
		for _, n := range field.Names {
			if n.Name != "_" {
				out = append(out, n.Name)
			}
		}
	}
	return out
}

// passesContext reports whether any argument of the call mentions one of
// the in-scope context parameters (or derives a context from one via
// context.WithX / r.Context()), i.e. the call is already threading ctx.
func passesContext(call *ast.CallExpr, ctxNames []string) bool {
	names := make(map[string]bool, len(ctxNames))
	for _, n := range ctxNames {
		names[n] = true
	}
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.Ident:
				if names[e.Name] {
					found = true
				}
			case *ast.SelectorExpr:
				if e.Sel.Name == "Context" {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// calleeName extracts the called function's bare name, unwrapping explicit
// generic instantiation.
func calleeName(call *ast.CallExpr) string {
	fun := call.Fun
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = idx.X
	case *ast.IndexListExpr:
		fun = idx.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// Package reducerpurity flags function literals passed as reducers,
// combiners, or aggregators whose bodies are impure. UPA's R(M(S')) reuse
// (PAPER.md §IV-A) folds the same partial states into many neighbouring
// outputs in arbitrary association orders; the engine's map-side combine and
// the retries of engine tasks and jobgraph stages all re-run reducers
// freely. All of that is only sound when a reducer is a pure function of its
// arguments: no mutation of captured variables, no I/O, no wall clock, no
// global randomness, and no results accumulated under map iteration order.
package reducerpurity

import (
	"fmt"
	"go/ast"
	"strings"

	"upa/internal/analyzers/analysis"
)

// Analyzer is the reducerpurity analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "reducerpurity",
	Doc: "flags impure function literals passed as reducers/combiners/aggregators " +
		"(mutation of captured variables, I/O, time.Now, global math/rand, " +
		"map-iteration-order-dependent writes); such reducers break the " +
		"commutativity/associativity contract UPA's R(M(S')) reuse depends on",
	Run: run,
}

// reducerSinks are the functions whose function-literal arguments must be
// pure. Matching is by callee name (qualified or not), which covers both
// in-package calls and mapreduce.X / core.X call sites.
var reducerSinks = map[string]bool{
	"Reduce": true, "ReduceCtx": true, "MapFold": true,
	"ReduceByKey": true, "ReduceByKeyCtx": true,
	"ReduceSlice": true, "PrefixSuffix": true, "Complement": true, "CombineOpt": true,
	"ReduceDP": true, "ReduceByKeyDP": true,
}

// nondeterministicPkgFuncs maps package import paths to the member
// functions whose results change run to run. An empty set means every
// member of the package is flagged.
var nondeterministicPkgFuncs = map[string]map[string]bool{
	"time":         {"Now": true, "Since": true, "Until": true},
	"math/rand":    nil, // all package-level funcs share the unseeded global source
	"math/rand/v2": nil,
	"crypto/rand":  nil,
}

// rngConstructors are math/rand members that build a local, seedable
// generator rather than consulting the global source; they are exempt.
var rngConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// ioPkgs flags calls into operating-system and I/O packages. For fmt, only
// the printing family is impure (Sprintf and friends are pure).
var ioPkgs = map[string]bool{
	"os": true, "log": true, "log/slog": true, "net": true, "net/http": true,
	"io": true, "io/fs": true, "bufio": true, "database/sql": true, "syscall": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if !reducerSinks[name] {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				checkReducerLit(pass, name, lit)
			}
			return true
		})
	}
	return nil
}

// calleeName extracts the called function's bare name from f(...), pkg.f(...),
// or f[T](...) forms.
func calleeName(call *ast.CallExpr) string {
	fun := call.Fun
	// Unwrap explicit instantiation: F[T](...) / pkg.F[T](...).
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

// checkReducerLit reports every purity violation inside one reducer literal.
func checkReducerLit(pass *analysis.Pass, sink string, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.FuncLit:
			// Nested literals inherit the obligation: they run inside the
			// reducer. Keep walking.
			return true
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				checkCapturedWrite(pass, sink, lit, lhs)
			}
		case *ast.IncDecStmt:
			checkCapturedWrite(pass, sink, lit, stmt.X)
		case *ast.CallExpr:
			checkCallPurity(pass, sink, stmt)
		case *ast.RangeStmt:
			checkMapRange(pass, sink, lit, stmt)
		case *ast.GoStmt:
			pass.Reportf(stmt.Pos(), fmt.Sprintf(
				"reducer passed to %s starts a goroutine; reducers must be pure synchronous functions", sink))
		}
		return true
	})
}

// checkCapturedWrite flags an assignment whose target is rooted in a
// variable declared outside the reducer literal.
func checkCapturedWrite(pass *analysis.Pass, sink string, lit *ast.FuncLit, lhs ast.Expr) {
	if ident, ok := lhs.(*ast.Ident); ok && ident.Name == "_" {
		return
	}
	root := analysis.RootIdent(lhs)
	if root == nil || root.Name == "_" {
		return
	}
	if pass.ImportPathOf(root) != "" {
		pass.Reportf(lhs.Pos(), fmt.Sprintf(
			"reducer passed to %s writes to a variable of package %s; reducers must not mutate shared state", sink, root.Name))
		return
	}
	obj := pass.ObjectOf(root)
	if obj == nil {
		return
	}
	if pass.DeclaredWithin(root, lit) {
		return
	}
	pass.Reportf(lhs.Pos(), fmt.Sprintf(
		"reducer passed to %s mutates captured variable %q; the engine re-runs and re-orders reducers, so writes outside the literal break commutativity/associativity", sink, root.Name))
}

// checkCallPurity flags I/O and nondeterministic package calls.
func checkCallPurity(pass *analysis.Pass, sink string, call *ast.CallExpr) {
	path, name, ok := pass.CalleePkgFunc(call)
	if !ok {
		return
	}
	if members, found := nondeterministicPkgFuncs[path]; found {
		if members == nil {
			if strings.HasPrefix(path, "math/rand") && rngConstructors[name] {
				return
			}
			pass.Reportf(call.Pos(), fmt.Sprintf(
				"reducer passed to %s calls %s.%s (global nondeterministic source); use a seeded *stats.RNG threaded through the operator instead", sink, pkgBase(path), name))
			return
		}
		if members[name] {
			pass.Reportf(call.Pos(), fmt.Sprintf(
				"reducer passed to %s calls %s.%s; reducers must be deterministic (inject a clock or seeded RNG)", sink, pkgBase(path), name))
		}
		return
	}
	if ioPkgs[path] {
		pass.Reportf(call.Pos(), fmt.Sprintf(
			"reducer passed to %s performs I/O via %s.%s; reducers must be pure", sink, pkgBase(path), name))
		return
	}
	if path == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Scan")) {
		pass.Reportf(call.Pos(), fmt.Sprintf(
			"reducer passed to %s performs I/O via fmt.%s; reducers must be pure", sink, name))
	}
}

// checkMapRange flags writes under map iteration order: a range over a map
// whose body assigns to a variable declared outside the range statement
// accumulates results in a nondeterministic order.
func checkMapRange(pass *analysis.Pass, sink string, lit *ast.FuncLit, rng *ast.RangeStmt) {
	if !pass.IsMapType(rng.X) {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			targets = stmt.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{stmt.X}
		default:
			return true
		}
		for _, lhs := range targets {
			root := analysis.RootIdent(lhs)
			if root == nil || root.Name == "_" {
				continue
			}
			obj := pass.ObjectOf(root)
			if obj == nil {
				continue
			}
			if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
				continue // the loop's own key/value/locals
			}
			pass.Reportf(lhs.Pos(), fmt.Sprintf(
				"reducer passed to %s writes to %q under map iteration order; map ranges are randomized per run, so the accumulated result is nondeterministic", sink, root.Name))
		}
		return true
	})
}

func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

package sql

import (
	"fmt"
	"strings"
)

// Explain runs the optimizer on a plan and renders the raw tree, the
// optimized tree, the physical tree the compiler will execute (each node
// tagged with its chosen strategy), and the applied rewrites — the review
// surface for what Optimize and the physical layer did to a query. The
// output is deterministic for a given plan, so tests can pin it as a
// golden.
func Explain(plan Plan) string {
	optimized, rewrites := Optimize(plan)
	var b strings.Builder
	b.WriteString("raw plan:\n")
	renderPlan(&b, plan, 1)
	b.WriteString("optimized plan:\n")
	renderPlan(&b, optimized, 1)
	b.WriteString("physical plan:\n")
	renderPhysical(&b, BuildPhysical(optimized), 1)
	b.WriteString("rewrites:\n")
	if len(rewrites) == 0 {
		b.WriteString("  (none)\n")
		return b.String()
	}
	for i, rw := range rewrites {
		fmt.Fprintf(&b, "  %d. %s: %s\n", i+1, rw.Rule, rw.Detail)
	}
	return b.String()
}

// planLine renders one node's single-line description (no indent, no
// children) — shared by the logical and physical renderers.
func planLine(p Plan) string {
	switch n := p.(type) {
	case *ScanPlan:
		names := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			names[i] = c.Name
		}
		return fmt.Sprintf("scan %s [%s] (%d rows)", n.Name, strings.Join(names, ", "), n.numRows())
	case *FilterPlan:
		return "filter " + n.Pred.describe()
	case *ProjectPlan:
		parts := make([]string, len(n.Exprs))
		for i, ne := range n.Exprs {
			if c, ok := ne.Expr.(colExpr); ok && c.name == ne.Name {
				parts[i] = ne.Name
			} else {
				parts[i] = ne.Name + "=" + ne.Expr.describe()
			}
		}
		return "project [" + strings.Join(parts, ", ") + "]"
	case *JoinPlan:
		return fmt.Sprintf("join %s=%s (right side is the hash build side)", n.LeftKey, n.RightKey)
	case *AggregatePlan:
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			arg := ""
			if a.Arg != nil {
				arg = a.Arg.describe()
			}
			aggs[i] = fmt.Sprintf("%s=%s(%s)", a.Name, a.Func, arg)
		}
		return fmt.Sprintf("aggregate group=[%s] aggs=[%s]",
			strings.Join(n.GroupBy, ", "), strings.Join(aggs, ", "))
	case *OrderByPlan:
		keys := make([]string, len(n.Keys))
		for i, k := range n.Keys {
			keys[i] = k.Column
			if k.Desc {
				keys[i] += " desc"
			}
		}
		return "order by [" + strings.Join(keys, ", ") + "]"
	case *DistinctPlan:
		return "distinct"
	case *LimitPlan:
		return fmt.Sprintf("limit %d", n.N)
	default:
		return p.describe()
	}
}

// renderPlan writes one node per line, children indented below parents.
func renderPlan(b *strings.Builder, p Plan, depth int) {
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), planLine(p))
	switch n := p.(type) {
	case *FilterPlan:
		renderPlan(b, n.Input, depth+1)
	case *ProjectPlan:
		renderPlan(b, n.Input, depth+1)
	case *JoinPlan:
		renderPlan(b, n.Left, depth+1)
		renderPlan(b, n.Right, depth+1)
	case *AggregatePlan:
		renderPlan(b, n.Input, depth+1)
	case *OrderByPlan:
		renderPlan(b, n.Input, depth+1)
	case *DistinctPlan:
		renderPlan(b, n.Input, depth+1)
	case *LimitPlan:
		renderPlan(b, n.Input, depth+1)
	}
}

// renderPhysical mirrors renderPlan over the physical tree, tagging each
// node with the strategy the compiler picked for it.
func renderPhysical(b *strings.Builder, n *PhysNode, depth int) {
	fmt.Fprintf(b, "%s%s [%s]\n", strings.Repeat("  ", depth), planLine(n.Logical), n.Strategy)
	for _, child := range n.Children {
		renderPhysical(b, child, depth+1)
	}
}

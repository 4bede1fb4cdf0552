package sql

import (
	"fmt"
	"strings"

	"upa/internal/relation"
)

// This file is the logical plan optimizer: a rule-driven rewrite pass that
// sits between plan construction and compilation. Every SQL consumer routes
// plans through Optimize — Execute/ExecuteCount, the DP bridge's influence
// computation (CompileDPCount), FLEX's join-column statistics, the canned
// TPC-H plans, and cmd/upa-query — so the engine is never asked to shuffle
// work a rewrite could have eliminated. The paper's efficiency claim (§V)
// rests on not re-shuffling the bulk R(M(S')) computation; the optimizer
// extends the same discipline upstream, to what the SQL layer asks the
// engine to shuffle in the first place.
//
// The rule catalogue:
//
//   - constant folding: literal-only subexpressions collapse to literals;
//     AND/OR/NOT identities simplify. An always-true filter is dropped; an
//     always-false filter is replaced by an empty relation of the same
//     schema.
//   - predicate pushdown: adjacent filters merge into one pass; predicates
//     move below Project (by inlining the projected expressions they
//     reference), below Distinct, and into the sides of a Join (each
//     conjunct sinks into the side whose columns it references).
//   - limit pushdown: stacked limits collapse to the minimum, and a Limit
//     moves below the order-preserving, row-count-preserving Project so
//     only the surviving prefix is projected.
//   - join-side sizing: the engine's hash join builds its table from the
//     right input and probes with the left, so the smaller estimated side
//     is moved to the right (a pass-through projection restores the output
//     column order).
//   - projection pruning: a required-column analysis walks from the root
//     and narrows scans to the columns an ancestor actually consumes, so
//     wide base relations stop hauling dead columns through shuffles.
//
// Every rule preserves the plan's output row multiset and its schema
// exactly. Two deliberate, documented exceptions to bit-for-bit behavioural
// identity: row *order* may change (joins stream their probe side, so
// swapping sides reorders output; SQL semantics never promised an order
// without ORDER BY), and a predicate hoisted past a short-circuiting AND or
// an unmatched join row may evaluate on rows the raw plan never showed it
// (visible only through runtime errors such as division by zero — never
// through the rows of an error-free run).
//
// DP safety: CompileDPCount threads a hidden __protected_idx column through
// the plan and counts output tuples per index, so the optimizer must
// neither drop nor duplicate that column, and must keep every protected
// row's output multiset membership intact. Both hold structurally: the
// index column is a group-by key of the influence plan, so the pruning
// analysis marks it required down to the protected scan, and every rule
// preserves row multisets — hence per-index counts, hence the influence
// map, the sampled neighbour set, and the ε charge. Optimize additionally
// refuses any rewrite that would change the root schema (the safety net at
// the bottom of Optimize), and returns malformed plans unchanged so
// compile reports their errors against the tree the caller built.

// Rewrite records one applied optimization, for Explain and for tests that
// pin rewrite behaviour.
type Rewrite struct {
	// Rule names the rewrite rule (e.g. "predicate-pushdown-join-left").
	Rule string
	// Detail describes what the rule did to which node.
	Detail string
}

// Optimize rewrites a logical plan with the rule catalogue above and
// returns the optimized plan plus the applied rewrites in application
// order. The optimized plan computes the same row multiset under the same
// schema as the input; malformed plans (schema errors anywhere in the
// tree) are returned unchanged so compilation reports the caller's tree.
func Optimize(plan Plan) (Plan, []Rewrite) {
	o := &optimizer{}
	out := o.fold(plan)
	out = o.pushFilters(out)
	out = o.pushLimits(out)
	// prune before sizeJoins: the restoring projection a join swap inserts
	// references every output column, which would otherwise stop the
	// required-column analysis from narrowing anything beneath it.
	out = o.prune(out, nil)
	// orderJoins before sizeJoins: ordering fixes which relations meet
	// first, sizing then picks the hash build side of each resulting join.
	out = o.orderJoins(out, true)
	out = o.sizeJoins(out, true)

	// Safety net: no rewrite may change the root schema. A mismatch means a
	// rule misfired; fall back to the raw tree rather than mis-execute.
	want, err := plan.Schema()
	if err != nil {
		return plan, nil
	}
	got, err := out.Schema()
	if err != nil || !schemasEqual(want, got) {
		return plan, nil
	}
	return out, o.rewrites
}

type optimizer struct {
	rewrites []Rewrite
}

func (o *optimizer) record(rule, format string, args ...any) {
	o.rewrites = append(o.rewrites, Rewrite{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// --- constant folding -----------------------------------------------------

// fold rewrites every expression in the tree with foldExpr and eliminates
// filters whose predicate folded to a boolean literal.
func (o *optimizer) fold(p Plan) Plan {
	switch n := p.(type) {
	case *FilterPlan:
		in := o.fold(n.Input)
		schema, err := in.Schema()
		pred := o.foldExpr(n.Pred, schema, err)
		if lit, ok := pred.(litExpr); ok && lit.v.Kind() == KindBool {
			if b, _ := lit.v.AsBool(); b {
				o.record("filter-true-elimination", "dropped always-true filter %s", n.Pred.describe())
				return in
			}
			if schema, err := in.Schema(); err == nil {
				o.record("filter-false-elimination", "replaced always-false filter %s with an empty relation", n.Pred.describe())
				return Scan("empty", schema, nil)
			}
		}
		return Where(in, pred)
	case *ProjectPlan:
		in := o.fold(n.Input)
		schema, err := in.Schema()
		exprs := make([]NamedExpr, len(n.Exprs))
		for i, ne := range n.Exprs {
			exprs[i] = NamedExpr{Name: ne.Name, Expr: o.foldExpr(ne.Expr, schema, err)}
		}
		return Project(in, exprs...)
	case *JoinPlan:
		return JoinOn(o.fold(n.Left), n.LeftKey, o.fold(n.Right), n.RightKey)
	case *AggregatePlan:
		in := o.fold(n.Input)
		schema, err := in.Schema()
		aggs := make([]AggSpec, len(n.Aggs))
		for i, a := range n.Aggs {
			if a.Arg != nil {
				a.Arg = o.foldExpr(a.Arg, schema, err)
			}
			aggs[i] = a
		}
		return GroupBy(in, n.GroupBy, aggs...)
	case *OrderByPlan:
		return OrderBy(o.fold(n.Input), n.Keys...)
	case *DistinctPlan:
		return Distinct(o.fold(n.Input))
	case *LimitPlan:
		return Limit(o.fold(n.Input), n.N)
	default:
		return p
	}
}

// foldExpr gates folding on the expression binding cleanly against its
// input schema: a malformed expression (unknown column, kind mismatch) is
// left alone so its compile-time error is reported against the caller's
// tree, and folding an AND/OR identity can never hide a type error in the
// discarded side.
func (o *optimizer) foldExpr(e Expr, in Schema, inErr error) Expr {
	if inErr != nil {
		return e
	}
	if _, _, err := e.bind(in); err != nil {
		return e
	}
	out, changed := foldExpr(e)
	if changed {
		o.record("constant-folding", "%s to %s", e.describe(), out.describe())
	}
	return out
}

// foldExpr simplifies an expression bottom-up and reports whether anything
// changed. Folding declines wherever evaluation could error (division by
// zero, kind mismatches) so those errors still surface at compile time.
func foldExpr(e Expr) (Expr, bool) {
	switch n := e.(type) {
	case binExpr:
		left, lc := foldExpr(n.left)
		right, rc := foldExpr(n.right)
		folded := binExpr{op: n.op, left: left, right: right}
		ll, lIsLit := left.(litExpr)
		rl, rIsLit := right.(litExpr)
		if lIsLit && rIsLit {
			if v, ok := evalConst(folded); ok {
				return litExpr{v: v}, true
			}
		}
		switch n.op {
		case opAnd:
			if lIsLit && ll.v.Kind() == KindBool {
				if b, _ := ll.v.AsBool(); b {
					return right, true
				}
				return litExpr{v: Bool(false)}, true
			}
			if rIsLit && rl.v.Kind() == KindBool {
				// Discarding the left side skips its evaluation, exactly as
				// an eliminated filter would.
				if b, _ := rl.v.AsBool(); b {
					return left, true
				}
				return litExpr{v: Bool(false)}, true
			}
		case opOr:
			if lIsLit && ll.v.Kind() == KindBool {
				if b, _ := ll.v.AsBool(); b {
					return litExpr{v: Bool(true)}, true
				}
				return right, true
			}
			if rIsLit && rl.v.Kind() == KindBool {
				if b, _ := rl.v.AsBool(); b {
					return litExpr{v: Bool(true)}, true
				}
				return left, true
			}
		}
		return folded, lc || rc
	case notExpr:
		inner, c := foldExpr(n.inner)
		if lit, ok := inner.(litExpr); ok && lit.v.Kind() == KindBool {
			b, _ := lit.v.AsBool()
			return litExpr{v: Bool(!b)}, true
		}
		if nn, ok := inner.(notExpr); ok {
			return nn.inner, true
		}
		return notExpr{inner: inner}, c
	default:
		return e, false
	}
}

// evalConst evaluates a literal-only binary expression; bind or evaluation
// errors decline the fold.
func evalConst(e binExpr) (Value, bool) {
	bound, _, err := e.bind(nil)
	if err != nil {
		return Value{}, false
	}
	v, err := bound(nil)
	if err != nil {
		return Value{}, false
	}
	return v, true
}

// --- predicate pushdown ---------------------------------------------------

// pushFilters sinks every filter as deep into its subtree as the rules
// allow.
func (o *optimizer) pushFilters(p Plan) Plan {
	switch n := p.(type) {
	case *FilterPlan:
		return o.place(n.Pred, o.pushFilters(n.Input))
	case *ProjectPlan:
		return Project(o.pushFilters(n.Input), n.Exprs...)
	case *JoinPlan:
		return JoinOn(o.pushFilters(n.Left), n.LeftKey, o.pushFilters(n.Right), n.RightKey)
	case *AggregatePlan:
		return GroupBy(o.pushFilters(n.Input), n.GroupBy, n.Aggs...)
	case *OrderByPlan:
		return OrderBy(o.pushFilters(n.Input), n.Keys...)
	case *DistinctPlan:
		return Distinct(o.pushFilters(n.Input))
	case *LimitPlan:
		return Limit(o.pushFilters(n.Input), n.N)
	default:
		return p
	}
}

// place sinks pred below node where a rule permits, or rebuilds the filter
// in place. Pushing stops at Limit (the filter would change which rows the
// prefix keeps), OrderBy (filtering before an unstable sort could reorder
// ties) and Aggregate (the predicate ranges over aggregated columns).
func (o *optimizer) place(pred Expr, node Plan) Plan {
	switch n := node.(type) {
	case *FilterPlan:
		// Merge into one predicate; AND short-circuits left-to-right, so the
		// inner predicate still evaluates first on every row.
		o.record("filter-merge", "merged filter %s into adjacent filter %s", pred.describe(), n.Pred.describe())
		return o.place(And(n.Pred, pred), n.Input)
	case *ProjectPlan:
		sub, ok := substituteCols(pred, n.Exprs)
		if !ok {
			return Where(node, pred)
		}
		o.record("predicate-pushdown-project", "moved %s below project as %s", pred.describe(), sub.describe())
		return Project(o.place(sub, n.Input), n.Exprs...)
	case *DistinctPlan:
		// Filtering before the dedup keeps the same first-seen survivors.
		o.record("predicate-pushdown-distinct", "moved %s below distinct", pred.describe())
		return Distinct(o.place(pred, n.Input))
	case *JoinPlan:
		ls, lerr := n.Left.Schema()
		rs, rerr := n.Right.Schema()
		if lerr != nil || rerr != nil {
			return Where(node, pred)
		}
		leftNames, rightNames := nameSet(ls), nameSet(rs)
		var leftC, rightC, keep []Expr
		for _, c := range conjuncts(pred) {
			cols, ok := exprCols(c)
			switch {
			case !ok || len(cols) == 0:
				keep = append(keep, c)
			case allIn(cols, leftNames):
				// A name present on both sides binds to the left column in
				// the join's output schema, so left-only resolution is the
				// same resolution the unpushed predicate used.
				leftC = append(leftC, c)
			case allIn(cols, rightNames) && noneIn(cols, leftNames):
				rightC = append(rightC, c)
			default:
				keep = append(keep, c)
			}
		}
		if len(leftC) == 0 && len(rightC) == 0 {
			return Where(node, pred)
		}
		left, right := n.Left, n.Right
		if len(leftC) > 0 {
			lp := andAll(leftC)
			o.record("predicate-pushdown-join-left", "moved %s below join to the %s side", lp.describe(), n.LeftKey)
			left = o.place(lp, left)
		}
		if len(rightC) > 0 {
			rp := andAll(rightC)
			o.record("predicate-pushdown-join-right", "moved %s below join to the %s side", rp.describe(), n.RightKey)
			right = o.place(rp, right)
		}
		out := Plan(JoinOn(left, n.LeftKey, right, n.RightKey))
		if len(keep) > 0 {
			out = Where(out, andAll(keep))
		}
		return out
	default:
		return Where(node, pred)
	}
}

// conjuncts splits a predicate on its top-level ANDs.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(binExpr); ok && b.op == opAnd {
		return append(conjuncts(b.left), conjuncts(b.right)...)
	}
	return []Expr{e}
}

// andAll rebuilds a conjunction (left-deep, preserving order).
func andAll(es []Expr) Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = And(out, e)
	}
	return out
}

// substituteCols rewrites pred for evaluation below a projection by
// inlining the projected expression behind every column reference. It
// declines on unknown expression kinds and on references the projection
// does not define.
func substituteCols(e Expr, exprs []NamedExpr) (Expr, bool) {
	switch n := e.(type) {
	case colExpr:
		for _, ne := range exprs {
			if ne.Name == n.name {
				return ne.Expr, true
			}
		}
		return nil, false
	case litExpr:
		return n, true
	case binExpr:
		l, ok := substituteCols(n.left, exprs)
		if !ok {
			return nil, false
		}
		r, ok := substituteCols(n.right, exprs)
		if !ok {
			return nil, false
		}
		return binExpr{op: n.op, left: l, right: r}, true
	case notExpr:
		inner, ok := substituteCols(n.inner, exprs)
		if !ok {
			return nil, false
		}
		return notExpr{inner: inner}, true
	default:
		return nil, false
	}
}

// exprCols collects the column names an expression references; ok is false
// for unknown expression kinds (which disables rules that need the set).
func exprCols(e Expr) (map[string]bool, bool) {
	out := map[string]bool{}
	var walk func(Expr) bool
	walk = func(e Expr) bool {
		switch n := e.(type) {
		case colExpr:
			out[n.name] = true
			return true
		case litExpr:
			return true
		case binExpr:
			return walk(n.left) && walk(n.right)
		case notExpr:
			return walk(n.inner)
		default:
			return false
		}
	}
	if !walk(e) {
		return nil, false
	}
	return out, true
}

// --- limit pushdown -------------------------------------------------------

// pushLimits collapses stacked limits and sinks limits below projections.
func (o *optimizer) pushLimits(p Plan) Plan {
	switch n := p.(type) {
	case *LimitPlan:
		return o.placeLimit(n.N, o.pushLimits(n.Input))
	case *FilterPlan:
		return Where(o.pushLimits(n.Input), n.Pred)
	case *ProjectPlan:
		return Project(o.pushLimits(n.Input), n.Exprs...)
	case *JoinPlan:
		return JoinOn(o.pushLimits(n.Left), n.LeftKey, o.pushLimits(n.Right), n.RightKey)
	case *AggregatePlan:
		return GroupBy(o.pushLimits(n.Input), n.GroupBy, n.Aggs...)
	case *OrderByPlan:
		return OrderBy(o.pushLimits(n.Input), n.Keys...)
	case *DistinctPlan:
		return Distinct(o.pushLimits(n.Input))
	default:
		return p
	}
}

func (o *optimizer) placeLimit(limit int, node Plan) Plan {
	if limit < 0 {
		return Limit(node, limit) // compile rejects negative limits
	}
	switch n := node.(type) {
	case *LimitPlan:
		if n.N >= 0 {
			m := min(limit, n.N)
			o.record("limit-collapse", "collapsed limit %d over limit %d to limit %d", limit, n.N, m)
			return o.placeLimit(m, n.Input)
		}
		return Limit(node, limit)
	case *ProjectPlan:
		// Project is 1:1 and order-preserving, so the prefix commutes with it
		// and only surviving rows get projected.
		o.record("limit-pushdown-project", "took the first %d rows below the project", limit)
		return Project(o.placeLimit(limit, n.Input), n.Exprs...)
	default:
		return Limit(node, limit)
	}
}

// --- cost-based join ordering ---------------------------------------------

// orderJoins rewrites every maximal multi-join (three or more base inputs)
// into a greedy cheapest-first left-deep chain. Costs come from
// relation.ColumnStats computed over each leaf's base-scan join column —
// the same count-only metadata (row count, distinct keys, top frequency)
// FLEX's sensitivity analysis already consumes, so ordering never inspects
// individual protected values and the DP bridge's influence accounting is
// untouched: inner equi-joins commute and associate over row multisets.
//
// Reordering changes row order, so it shares sizeJoins' gate: off beneath a
// Limit and beneath float Sum/Avg aggregates (their accumulation order is
// observable in the last bits). It declines trees whose leaves are not
// Filter-over-Scan chains, whose column names collide across leaves (the
// restoring projection would be ambiguous), or whose keys cannot be pinned
// to a single leaf.
func (o *optimizer) orderJoins(p Plan, canReorder bool) Plan {
	switch n := p.(type) {
	case *JoinPlan:
		if canReorder {
			if reordered, ok := o.reorderJoinTree(n); ok {
				return reordered
			}
		}
		return JoinOn(o.orderJoins(n.Left, canReorder), n.LeftKey,
			o.orderJoins(n.Right, canReorder), n.RightKey)
	case *FilterPlan:
		return Where(o.orderJoins(n.Input, canReorder), n.Pred)
	case *ProjectPlan:
		return Project(o.orderJoins(n.Input, canReorder), n.Exprs...)
	case *AggregatePlan:
		for _, a := range n.Aggs {
			if a.Func == AggSum || a.Func == AggAvg {
				canReorder = false
				break
			}
		}
		return GroupBy(o.orderJoins(n.Input, canReorder), n.GroupBy, n.Aggs...)
	case *OrderByPlan:
		return OrderBy(o.orderJoins(n.Input, canReorder), n.Keys...)
	case *DistinctPlan:
		return Distinct(o.orderJoins(n.Input, canReorder))
	case *LimitPlan:
		return Limit(o.orderJoins(n.Input, false), n.N)
	default:
		return p
	}
}

// joinLeaf is one base input of a flattened join tree.
type joinLeaf struct {
	plan   Plan
	scan   *ScanPlan
	schema Schema
}

// joinEdge is one equi-join condition between two leaves.
type joinEdge struct {
	li, lj     int
	keyI, keyJ string
}

// baseScan walks a Filter chain to its scan. Any other interior node
// (Project renames columns, aggregates change cardinality classes) makes
// the leaf opaque to the statistics and declines the reorder.
func baseScan(p Plan) (*ScanPlan, bool) {
	for {
		switch n := p.(type) {
		case *ScanPlan:
			return n, true
		case *FilterPlan:
			p = n.Input
		default:
			return nil, false
		}
	}
}

// reorderJoinTree flattens the join tree rooted at root into leaves and
// equi-join edges, greedily rebuilds a left-deep chain by ascending
// estimated cardinality, and wraps it in a projection restoring the
// original column order. ok is false when the tree declines (see
// orderJoins) or the greedy order matches the existing one.
func (o *optimizer) reorderJoinTree(root *JoinPlan) (Plan, bool) {
	var leaves []joinLeaf
	var edges []joinEdge
	var flatten func(p Plan) ([]int, bool)
	flatten = func(p Plan) ([]int, bool) {
		if j, ok := p.(*JoinPlan); ok {
			ls, ok := flatten(j.Left)
			if !ok {
				return nil, false
			}
			rs, ok := flatten(j.Right)
			if !ok {
				return nil, false
			}
			li, ok := leafWithColumn(leaves, ls, j.LeftKey)
			if !ok {
				return nil, false
			}
			rj, ok := leafWithColumn(leaves, rs, j.RightKey)
			if !ok {
				return nil, false
			}
			edges = append(edges, joinEdge{li: li, lj: rj, keyI: j.LeftKey, keyJ: j.RightKey})
			return append(ls, rs...), true
		}
		scan, ok := baseScan(p)
		if !ok {
			return nil, false
		}
		schema, err := p.Schema()
		if err != nil {
			return nil, false
		}
		leaves = append(leaves, joinLeaf{plan: p, scan: scan, schema: schema})
		return []int{len(leaves) - 1}, true
	}
	if _, ok := flatten(root); !ok || len(leaves) < 3 {
		return nil, false
	}
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			if !uniqueNames(leaves[i].schema, leaves[j].schema) {
				return nil, false
			}
		}
	}

	// Key statistics per edge endpoint, over the leaf's base scan.
	keyStats := func(leaf int, col string) (relation.ColumnStats, bool) {
		idx, err := Schema(leaves[leaf].scan.Cols).IndexOf(col)
		if err != nil {
			return relation.ColumnStats{}, false
		}
		rows, err := leaves[leaf].scan.rows()
		if err != nil {
			return relation.ColumnStats{}, false
		}
		return relation.StatsOf(rows, func(r Row) Value { return r[idx] }), true
	}
	statsI := make([]relation.ColumnStats, len(edges))
	statsJ := make([]relation.ColumnStats, len(edges))
	for ei, e := range edges {
		si, ok := keyStats(e.li, e.keyI)
		if !ok {
			return nil, false
		}
		sj, ok := keyStats(e.lj, e.keyJ)
		if !ok {
			return nil, false
		}
		statsI[ei], statsJ[ei] = si, sj
	}

	// Greedy build: cheapest edge first, then always attach the leaf whose
	// join with the running composite is estimated cheapest.
	start, cost := -1, 0
	for ei := range edges {
		c := statsI[ei].JoinCardinality(statsJ[ei])
		if start < 0 || c < cost {
			start, cost = ei, c
		}
	}
	placed := make([]bool, len(leaves))
	used := make([]bool, len(edges))
	used[start] = true
	placed[edges[start].li], placed[edges[start].lj] = true, true
	seq := []int{edges[start].li, edges[start].lj}
	cur := JoinOn(leaves[edges[start].li].plan, edges[start].keyI,
		leaves[edges[start].lj].plan, edges[start].keyJ)
	curEst := cost
	for len(seq) < len(leaves) {
		bestEdge, bestCost, bestNew := -1, 0, -1
		for ei, e := range edges {
			if used[ei] || placed[e.li] == placed[e.lj] {
				continue
			}
			// The composite inherits the placed endpoint's key distribution,
			// rescaled to the running cardinality estimate.
			outer, innerStats, outerStats := e.lj, statsI[ei], statsJ[ei]
			if placed[e.lj] {
				outer, innerStats, outerStats = e.li, statsJ[ei], statsI[ei]
			}
			c := compositeStats(innerStats, curEst).JoinCardinality(outerStats)
			if bestEdge < 0 || c < bestCost {
				bestEdge, bestCost, bestNew = ei, c, outer
			}
		}
		if bestEdge < 0 {
			return nil, false // disconnected — not a well-formed join tree
		}
		e := edges[bestEdge]
		leftKey, rightKey := e.keyI, e.keyJ
		if bestNew == e.li {
			leftKey, rightKey = e.keyJ, e.keyI
		}
		cur = JoinOn(cur, leftKey, leaves[bestNew].plan, rightKey)
		used[bestEdge], placed[bestNew] = true, true
		seq = append(seq, bestNew)
		curEst = bestCost
	}

	inOrder := true
	for i, leaf := range seq {
		if leaf != i {
			inOrder = false
			break
		}
	}
	if inOrder {
		return nil, false
	}

	// Restore the original column order (leaf schemas concatenated in
	// declaration order) over the reordered chain.
	var exprs []NamedExpr
	for _, leaf := range leaves {
		for _, c := range leaf.schema {
			exprs = append(exprs, NamedExpr{Name: c.Name, Expr: Col(c.Name)})
		}
	}
	names := make([]string, len(seq))
	for i, leaf := range seq {
		names[i] = leaves[leaf].scan.Name
	}
	o.record("join-order", "reordered %d-way join to [%s] (est. %d rows)",
		len(leaves), strings.Join(names, " >< "), curEst)
	return Project(cur, exprs...), true
}

// compositeStats rescales a key column's statistics to the running
// composite's estimated row count, clamping the per-column counts so the
// result stays internally consistent.
func compositeStats(s relation.ColumnStats, rows int) relation.ColumnStats {
	s.RowCount = rows
	if s.Distinct > rows {
		s.Distinct = rows
	}
	if s.MaxFreq > rows {
		s.MaxFreq = rows
	}
	return s
}

// leafWithColumn resolves a join key to the single leaf (among candidates)
// whose schema carries it.
func leafWithColumn(leaves []joinLeaf, candidates []int, col string) (int, bool) {
	found, count := -1, 0
	for _, li := range candidates {
		if _, err := leaves[li].schema.IndexOf(col); err == nil {
			found = li
			count++
		}
	}
	return found, count == 1
}

// --- join-side sizing -----------------------------------------------------

// sizeJoins puts the smaller estimated input of every join on the right —
// the side the engine hashes (the build side) while streaming the left
// (probe) side. A pass-through projection restores the original column
// order; the swap is skipped when any column name appears on both sides
// (the restoring projection would be ambiguous).
//
// Swapping reorders the join's output (it streams the other probe side),
// which every rule but this one avoids. That is invisible to SQL semantics
// except under a Limit, whose kept prefix depends on row order — so
// canReorder flips off for the subtree beneath every LimitPlan and the
// rewrite preserves row multisets everywhere, row *sequences* under limits.
func (o *optimizer) sizeJoins(p Plan, canReorder bool) Plan {
	switch n := p.(type) {
	case *JoinPlan:
		left := o.sizeJoins(n.Left, canReorder)
		right := o.sizeJoins(n.Right, canReorder)
		el, er := estimateRows(left), estimateRows(right)
		if canReorder && el < er {
			if restored, ok := o.swapJoin(left, n.LeftKey, right, n.RightKey, el, er); ok {
				return restored
			}
		}
		return JoinOn(left, n.LeftKey, right, n.RightKey)
	case *FilterPlan:
		return Where(o.sizeJoins(n.Input, canReorder), n.Pred)
	case *ProjectPlan:
		return Project(o.sizeJoins(n.Input, canReorder), n.Exprs...)
	case *AggregatePlan:
		// Float Sum/Avg accumulate in arrival order, so reordering their
		// input can change the result in the last bits (float addition is
		// not associative). Count/Min/Max are order-independent exactly.
		for _, a := range n.Aggs {
			if a.Func == AggSum || a.Func == AggAvg {
				canReorder = false
				break
			}
		}
		return GroupBy(o.sizeJoins(n.Input, canReorder), n.GroupBy, n.Aggs...)
	case *OrderByPlan:
		return OrderBy(o.sizeJoins(n.Input, canReorder), n.Keys...)
	case *DistinctPlan:
		return Distinct(o.sizeJoins(n.Input, canReorder))
	case *LimitPlan:
		return Limit(o.sizeJoins(n.Input, false), n.N)
	default:
		return p
	}
}

func (o *optimizer) swapJoin(left Plan, leftKey string, right Plan, rightKey string, el, er int) (Plan, bool) {
	ls, lerr := left.Schema()
	rs, rerr := right.Schema()
	if lerr != nil || rerr != nil || !uniqueNames(ls, rs) {
		return nil, false
	}
	exprs := make([]NamedExpr, 0, len(ls)+len(rs))
	for _, c := range ls {
		exprs = append(exprs, NamedExpr{Name: c.Name, Expr: Col(c.Name)})
	}
	for _, c := range rs {
		exprs = append(exprs, NamedExpr{Name: c.Name, Expr: Col(c.Name)})
	}
	o.record("join-build-side", "hashed the smaller side (~%d rows) instead of (~%d rows) on %s=%s", el, er, leftKey, rightKey)
	return Project(JoinOn(right, rightKey, left, leftKey), exprs...), true
}

// estimateRows guesses a node's output cardinality from scan sizes: filters
// keep about a third, distinct and grouped aggregates halve, an equi-join
// yields about its larger input. The estimates only order join sides; they
// never affect semantics.
func estimateRows(p Plan) int {
	switch n := p.(type) {
	case *ScanPlan:
		return n.numRows()
	case *FilterPlan:
		return max(1, estimateRows(n.Input)/3)
	case *ProjectPlan:
		return estimateRows(n.Input)
	case *JoinPlan:
		return max(estimateRows(n.Left), estimateRows(n.Right))
	case *AggregatePlan:
		if len(n.GroupBy) == 0 {
			return 1
		}
		return max(1, estimateRows(n.Input)/2)
	case *OrderByPlan:
		return estimateRows(n.Input)
	case *DistinctPlan:
		return max(1, estimateRows(n.Input)/2)
	case *LimitPlan:
		est := estimateRows(n.Input)
		if n.N >= 0 && n.N < est {
			return n.N
		}
		return est
	default:
		return 1
	}
}

// ScanCells counts the values the plan's scans feed into execution:
// Σ rows×columns over every scan in the tree. Projection pruning narrows
// scans themselves, so comparing ScanCells of a raw and an optimized plan
// measures exactly the data volume pruning kept out of execution.
func ScanCells(p Plan) int64 {
	switch n := p.(type) {
	case *ScanPlan:
		return int64(n.numRows()) * int64(len(n.Cols))
	case *FilterPlan:
		return ScanCells(n.Input)
	case *ProjectPlan:
		return ScanCells(n.Input)
	case *JoinPlan:
		return ScanCells(n.Left) + ScanCells(n.Right)
	case *AggregatePlan:
		return ScanCells(n.Input)
	case *OrderByPlan:
		return ScanCells(n.Input)
	case *DistinctPlan:
		return ScanCells(n.Input)
	case *LimitPlan:
		return ScanCells(n.Input)
	default:
		return 0
	}
}

// --- projection pruning ---------------------------------------------------

// prune narrows scans to the columns the ancestors actually consume. need
// is the set of column names required above this node; nil means every
// column is required (the root, and anything feeding a Distinct, whose
// identity is the whole row). Only Project and Aggregate introduce concrete
// sets — they rebuild rows, so width changes below them never surface — and
// the root is always pruned with nil, which keeps the output schema intact.
func (o *optimizer) prune(p Plan, need map[string]bool) Plan {
	switch n := p.(type) {
	case *ScanPlan:
		return o.pruneScan(n, need)
	case *FilterPlan:
		return Where(o.prune(n.Input, addExprCols(need, n.Pred)), n.Pred)
	case *ProjectPlan:
		childNeed := map[string]bool{}
		for _, ne := range n.Exprs {
			cols, ok := exprCols(ne.Expr)
			if !ok {
				childNeed = nil
				break
			}
			for c := range cols {
				childNeed[c] = true
			}
		}
		return Project(o.prune(n.Input, childNeed), n.Exprs...)
	case *JoinPlan:
		if need == nil {
			return JoinOn(o.prune(n.Left, nil), n.LeftKey, o.prune(n.Right, nil), n.RightKey)
		}
		ls, lerr := n.Left.Schema()
		rs, rerr := n.Right.Schema()
		if lerr != nil || rerr != nil {
			return JoinOn(o.prune(n.Left, nil), n.LeftKey, o.prune(n.Right, nil), n.RightKey)
		}
		leftNames, rightNames := nameSet(ls), nameSet(rs)
		leftNeed := map[string]bool{n.LeftKey: true}
		rightNeed := map[string]bool{n.RightKey: true}
		for name := range need {
			switch {
			case leftNames[name]:
				// Duplicated names bind to the left copy, so the right copy
				// of a left-resolvable name is unreachable and prunable.
				leftNeed[name] = true
			case rightNames[name]:
				rightNeed[name] = true
			}
		}
		return JoinOn(o.prune(n.Left, leftNeed), n.LeftKey, o.prune(n.Right, rightNeed), n.RightKey)
	case *AggregatePlan:
		childNeed := map[string]bool{}
		for _, g := range n.GroupBy {
			childNeed[g] = true
		}
		for _, a := range n.Aggs {
			if a.Arg == nil {
				continue
			}
			cols, ok := exprCols(a.Arg)
			if !ok {
				childNeed = nil
				break
			}
			for c := range cols {
				childNeed[c] = true
			}
		}
		return GroupBy(o.prune(n.Input, childNeed), n.GroupBy, n.Aggs...)
	case *OrderByPlan:
		childNeed := need
		if childNeed != nil {
			childNeed = copySet(need)
			for _, k := range n.Keys {
				childNeed[k.Column] = true
			}
		}
		return OrderBy(o.prune(n.Input, childNeed), n.Keys...)
	case *DistinctPlan:
		// Distinct dedups on the whole row, so every column is load-bearing.
		return Distinct(o.prune(n.Input, nil))
	case *LimitPlan:
		return Limit(o.prune(n.Input, need), n.N)
	default:
		return p
	}
}

// pruneScan narrows the scan itself — a view of the same relation carrying
// only the kept columns — rather than wrapping a Project node around it. A
// Project would cost a full extra pass over the base relation at execution
// time; the view costs nothing here and nothing on the columnar path (it
// picks the kept vectors out of the relation's image), and where a row
// operator reads it the rows are built once, at the pruned width.
func (o *optimizer) pruneScan(n *ScanPlan, need map[string]bool) Plan {
	if need == nil || len(n.Cols) == 0 || hasDuplicateNames(n.Cols) {
		return n
	}
	kept := make([]int, 0, len(n.Cols))
	for i, c := range n.Cols {
		if need[c.Name] {
			kept = append(kept, i)
		}
	}
	if len(kept) == len(n.Cols) {
		return n
	}
	if len(kept) == 0 {
		// A zero-column scan would make every row indistinguishable; keep one
		// column so counting nodes still see real rows.
		kept = []int{0}
	}
	cols := make(Schema, len(kept))
	names := make([]string, len(kept))
	for i, j := range kept {
		cols[i] = n.Cols[j]
		names[i] = n.Cols[j].Name
	}
	o.record("projection-pruning", "narrowed scan %s from %d to %d columns [%s]",
		n.Name, len(n.Cols), len(cols), strings.Join(names, ", "))
	return n.derive(cols, kept)
}

// addExprCols unions an expression's columns into need (nil stays nil: all
// columns were already required; unknown expression kinds also force nil).
func addExprCols(need map[string]bool, e Expr) map[string]bool {
	if need == nil {
		return nil
	}
	cols, ok := exprCols(e)
	if !ok {
		return nil
	}
	out := copySet(need)
	for c := range cols {
		out[c] = true
	}
	return out
}

// --- small helpers --------------------------------------------------------

func nameSet(s Schema) map[string]bool {
	out := make(map[string]bool, len(s))
	for _, c := range s {
		out[c.Name] = true
	}
	return out
}

func allIn(cols, names map[string]bool) bool {
	for c := range cols {
		if !names[c] {
			return false
		}
	}
	return true
}

func noneIn(cols, names map[string]bool) bool {
	for c := range cols {
		if names[c] {
			return false
		}
	}
	return true
}

func uniqueNames(ls, rs Schema) bool {
	seen := make(map[string]bool, len(ls)+len(rs))
	for _, c := range ls {
		if seen[c.Name] {
			return false
		}
		seen[c.Name] = true
	}
	for _, c := range rs {
		if seen[c.Name] {
			return false
		}
		seen[c.Name] = true
	}
	return true
}

func hasDuplicateNames(s Schema) bool {
	seen := make(map[string]bool, len(s))
	for _, c := range s {
		if seen[c.Name] {
			return true
		}
		seen[c.Name] = true
	}
	return false
}

func copySet(in map[string]bool) map[string]bool {
	out := make(map[string]bool, len(in))
	for k := range in {
		out[k] = true
	}
	return out
}

func schemasEqual(a, b Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

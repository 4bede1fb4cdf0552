package sql

import (
	"sort"
	"strings"
	"testing"
)

// sortedRows renders rows to collision-safe strings and sorts them, the
// multiset form used across the optimizer equivalence tests.
func sortedRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r)
	}
	sort.Strings(out)
	return out
}

// assertSameMultiset runs the plan raw and optimized and compares the
// results as sorted multisets.
func assertSameMultiset(t *testing.T, plan Plan) []Rewrite {
	t.Helper()
	rawRows, rawSchema, rawErr := ExecuteRaw(eng(), plan)
	optRows, optSchema, optErr := Execute(eng(), plan)
	if (rawErr == nil) != (optErr == nil) {
		t.Fatalf("error divergence: raw=%v optimized=%v", rawErr, optErr)
	}
	if rawErr != nil {
		return nil
	}
	if !schemasEqual(rawSchema, optSchema) {
		t.Fatalf("schema divergence: raw=%v optimized=%v", rawSchema, optSchema)
	}
	raw, opt := sortedRows(rawRows), sortedRows(optRows)
	if len(raw) != len(opt) {
		t.Fatalf("row count divergence: raw=%d optimized=%d", len(raw), len(opt))
	}
	for i := range raw {
		if raw[i] != opt[i] {
			t.Fatalf("row multiset divergence at %d:\nraw %q\nopt %q", i, raw[i], opt[i])
		}
	}
	_, rewrites := Optimize(plan)
	return rewrites
}

func hasRule(rewrites []Rewrite, rule string) bool {
	for _, rw := range rewrites {
		if rw.Rule == rule {
			return true
		}
	}
	return false
}

func TestConstantFolding(t *testing.T) {
	plan := Project(ordersScan(),
		NamedExpr{Name: "k", Expr: Col("orderkey")},
		NamedExpr{Name: "c", Expr: Add(Lit(Int(2)), Mul(Lit(Int(3)), Lit(Int(4))))},
	)
	opt, rewrites := Optimize(plan)
	if !hasRule(rewrites, "constant-folding") {
		t.Fatalf("no constant-folding rewrite recorded: %v", rewrites)
	}
	pp, ok := opt.(*ProjectPlan)
	if !ok {
		t.Fatalf("optimized root is %T, want *ProjectPlan", opt)
	}
	lit, ok := pp.Exprs[1].Expr.(litExpr)
	if !ok {
		t.Fatalf("constant expression did not fold: %s", pp.Exprs[1].Expr.describe())
	}
	if v, _ := lit.v.AsInt(); v != 14 {
		t.Fatalf("2 + 3*4 folded to %v", lit.v)
	}
	assertSameMultiset(t, plan)
}

func TestConstantFoldingDeclinesDivisionByZero(t *testing.T) {
	// A constant division by zero must keep erroring at run time, not get
	// folded away or panic the optimizer.
	plan := Project(ordersScan(),
		NamedExpr{Name: "boom", Expr: Div(Lit(Float(1)), Lit(Float(0)))},
	)
	if _, _, err := Execute(eng(), plan); err == nil {
		t.Fatal("division by zero survived optimization without an error")
	}
}

func TestTrueFilterElimination(t *testing.T) {
	plan := Where(ordersScan(), Or(Lit(Bool(true)), Eq(Col("status"), Lit(Str("F")))))
	rewrites := assertSameMultiset(t, plan)
	if !hasRule(rewrites, "filter-true-elimination") {
		t.Fatalf("always-true filter not eliminated: %v", rewrites)
	}
	opt, _ := Optimize(plan)
	if _, ok := opt.(*ScanPlan); !ok {
		t.Fatalf("optimized plan is %T, want bare *ScanPlan", opt)
	}
}

func TestFalseFilterElimination(t *testing.T) {
	plan := Where(ordersScan(), And(Lit(Bool(false)), Eq(Col("status"), Lit(Str("F")))))
	rewrites := assertSameMultiset(t, plan)
	if !hasRule(rewrites, "filter-false-elimination") {
		t.Fatalf("always-false filter not eliminated: %v", rewrites)
	}
	rows, _, err := Execute(eng(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("always-false filter returned %d rows", len(rows))
	}
}

func TestPredicatePushdownIntoJoinSides(t *testing.T) {
	joined := JoinOn(ordersScan(), "custkey", customersScan(), "custkey")
	plan := Where(joined, And(
		Gt(Col("price"), Lit(Float(60))),
		Eq(Col("nation"), Lit(Str("DE"))),
	))
	rewrites := assertSameMultiset(t, plan)
	if !hasRule(rewrites, "predicate-pushdown-join-left") {
		t.Fatalf("left-side conjunct not pushed: %v", rewrites)
	}
	if !hasRule(rewrites, "predicate-pushdown-join-right") {
		t.Fatalf("right-side conjunct not pushed: %v", rewrites)
	}
}

func TestPredicatePushdownKeepsCrossSideConjunct(t *testing.T) {
	joined := JoinOn(ordersScan(), "custkey", customersScan(), "custkey")
	// References both sides: must stay above the join.
	plan := Where(joined, Or(
		Gt(Col("price"), Lit(Float(60))),
		Eq(Col("nation"), Lit(Str("DE"))),
	))
	rewrites := assertSameMultiset(t, plan)
	if hasRule(rewrites, "predicate-pushdown-join-left") || hasRule(rewrites, "predicate-pushdown-join-right") {
		t.Fatalf("cross-side predicate was pushed: %v", rewrites)
	}
}

func TestPredicatePushdownThroughProject(t *testing.T) {
	projected := Project(ordersScan(),
		NamedExpr{Name: "okey", Expr: Col("orderkey")},
		NamedExpr{Name: "taxed", Expr: Mul(Col("price"), Lit(Float(2)))},
	)
	plan := Where(projected, Gt(Col("taxed"), Lit(Float(150))))
	rewrites := assertSameMultiset(t, plan)
	if !hasRule(rewrites, "predicate-pushdown-project") {
		t.Fatalf("filter not pushed through project: %v", rewrites)
	}
	// The pushed predicate must reference the inlined expression.
	opt, _ := Optimize(plan)
	if _, ok := opt.(*ProjectPlan); !ok {
		t.Fatalf("optimized root is %T, want project above the pushed filter", opt)
	}
}

func TestFilterMerge(t *testing.T) {
	plan := Where(
		Where(ordersScan(), Eq(Col("status"), Lit(Str("F")))),
		Gt(Col("price"), Lit(Float(60))),
	)
	rewrites := assertSameMultiset(t, plan)
	if !hasRule(rewrites, "filter-merge") {
		t.Fatalf("adjacent filters not merged: %v", rewrites)
	}
}

func TestProjectionPruning(t *testing.T) {
	plan := GroupBy(ordersScan(), []string{"status"},
		AggSpec{Name: "n", Func: AggCount})
	rewrites := assertSameMultiset(t, plan)
	if !hasRule(rewrites, "projection-pruning") {
		t.Fatalf("scan not pruned below the aggregate: %v", rewrites)
	}
	opt, _ := Optimize(plan)
	agg := opt.(*AggregatePlan)
	sp, ok := agg.Input.(*ScanPlan)
	if !ok {
		t.Fatalf("aggregate input is %T, want narrowed *ScanPlan", agg.Input)
	}
	if len(sp.Cols) != 1 || sp.Cols[0].Name != "status" {
		t.Fatalf("pruned to %v, want [status]", sp.Cols)
	}
	rows, err := sp.rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != ordersScan().numRows() {
		t.Fatalf("narrowed scan has %d rows", len(rows))
	}
	for i, r := range rows {
		if len(r) != 1 {
			t.Fatalf("narrowed row %d still has %d values", i, len(r))
		}
	}
}

func TestPruningKeepsRootSchema(t *testing.T) {
	// The root needs every column, so a bare scan must not be narrowed.
	opt, rewrites := Optimize(ordersScan())
	if hasRule(rewrites, "projection-pruning") {
		t.Fatalf("root scan was pruned: %v", rewrites)
	}
	if _, ok := opt.(*ScanPlan); !ok {
		t.Fatalf("optimized plan is %T, want untouched *ScanPlan", opt)
	}
}

func TestLimitCollapse(t *testing.T) {
	plan := Limit(Limit(ordersScan(), 4), 2)
	rewrites := assertSameMultiset(t, plan)
	if !hasRule(rewrites, "limit-collapse") {
		t.Fatalf("stacked limits not collapsed: %v", rewrites)
	}
	opt, _ := Optimize(plan)
	lp, ok := opt.(*LimitPlan)
	if !ok || lp.N != 2 {
		t.Fatalf("optimized plan is %s, want limit[2](scan)", Describe(opt))
	}
	if _, ok := lp.Input.(*ScanPlan); !ok {
		t.Fatalf("collapsed limit input is %T, want *ScanPlan", lp.Input)
	}
}

func TestLimitPushdownBelowProject(t *testing.T) {
	plan := Limit(Project(ordersScan(),
		NamedExpr{Name: "okey", Expr: Col("orderkey")},
	), 2)
	rewrites := assertSameMultiset(t, plan)
	if !hasRule(rewrites, "limit-pushdown-project") {
		t.Fatalf("limit not pushed below project: %v", rewrites)
	}
	opt, _ := Optimize(plan)
	if _, ok := opt.(*ProjectPlan); !ok {
		t.Fatalf("optimized root is %T, want project above the pushed limit", opt)
	}
}

// smallScan and bigScan have globally unique column names so the join-side
// swap's restoring projection is unambiguous.
func smallScan() *ScanPlan {
	cols := Schema{{Name: "sk", Kind: KindInt}, {Name: "w", Kind: KindInt}}
	return Scan("small", cols, []Row{
		{Int(1), Int(100)},
		{Int(2), Int(200)},
	})
}

func bigScan() *ScanPlan {
	cols := Schema{{Name: "bk", Kind: KindInt}, {Name: "v", Kind: KindInt}}
	rows := []Row{
		{Int(1), Int(10)}, {Int(2), Int(20)}, {Int(1), Int(30)},
		{Int(3), Int(40)}, {Int(2), Int(50)}, {Int(1), Int(60)},
	}
	return Scan("big", cols, rows)
}

func TestJoinBuildSideSizing(t *testing.T) {
	// small (2 rows) is the left side of the raw plan; the optimizer should
	// move it to the right (the hash build side) and restore column order
	// with a projection.
	plan := JoinOn(smallScan(), "sk", bigScan(), "bk")
	rewrites := assertSameMultiset(t, plan)
	if !hasRule(rewrites, "join-build-side") {
		t.Fatalf("smaller side not moved to the build side: %v", rewrites)
	}
	opt, _ := Optimize(plan)
	pp, ok := opt.(*ProjectPlan)
	if !ok {
		t.Fatalf("optimized root is %T, want restoring *ProjectPlan", opt)
	}
	jp, ok := pp.Input.(*JoinPlan)
	if !ok {
		t.Fatalf("restoring projection input is %T, want *JoinPlan", pp.Input)
	}
	if jp.LeftKey != "bk" || jp.RightKey != "sk" {
		t.Fatalf("join keys not swapped: %s=%s", jp.LeftKey, jp.RightKey)
	}
}

func TestJoinSizingSkipsDuplicateNames(t *testing.T) {
	// custkey appears on both sides, so the restoring projection would be
	// ambiguous and the swap must not fire.
	plan := JoinOn(customersScan(), "custkey", ordersScan(), "custkey")
	rewrites := assertSameMultiset(t, plan)
	if hasRule(rewrites, "join-build-side") {
		t.Fatalf("join with duplicate column names was swapped: %v", rewrites)
	}
}

func TestJoinSizingSkipsBelowLimit(t *testing.T) {
	// Swapping reorders rows, which would change which rows the limit
	// keeps — the optimizer must not swap beneath a limit.
	plan := Limit(JoinOn(customersScan(), "custkey", ordersScan(), "custkey"), 3)
	rewrites := assertSameMultiset(t, plan)
	if hasRule(rewrites, "join-build-side") {
		t.Fatalf("join swapped beneath a limit: %v", rewrites)
	}
}

func TestMalformedPlansReturnedUnchanged(t *testing.T) {
	plans := []Plan{
		Where(ordersScan(), Col("missing")),
		Where(ordersScan(), Add(Col("status"), Lit(Int(1)))),
		GroupBy(ordersScan(), []string{"status"}),
		Limit(ordersScan(), -2),
	}
	for _, plan := range plans {
		if _, _, err := Execute(eng(), plan); err == nil {
			t.Fatalf("malformed plan executed without error: %s", Describe(plan))
		}
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	joined := JoinOn(ordersScan(), "custkey", customersScan(), "custkey")
	plan := Where(joined, Eq(Col("nation"), Lit(Str("DE"))))
	once, _ := Optimize(plan)
	twice, rewrites := Optimize(once)
	if Describe(once) != Describe(twice) {
		t.Fatalf("optimize is not idempotent:\nonce  %s\ntwice %s\nrewrites %v",
			Describe(once), Describe(twice), rewrites)
	}
}

func TestExplainMentionsRewrites(t *testing.T) {
	joined := JoinOn(ordersScan(), "custkey", customersScan(), "custkey")
	plan := GroupBy(Where(joined, Eq(Col("nation"), Lit(Str("DE")))), nil,
		AggSpec{Name: "n", Func: AggCount})
	out := Explain(plan)
	for _, want := range []string{"raw plan:", "optimized plan:", "rewrites:", "predicate-pushdown-join-right"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, out)
		}
	}
}

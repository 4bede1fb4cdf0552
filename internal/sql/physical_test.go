package sql

import (
	"math"
	"testing"

	"upa/internal/mapreduce"
)

// executeRows runs the optimized plan with every operator row-at-a-time: the
// compiler Execute uses, with its columnar flag cleared.
func executeRows(e *mapreduce.Engine, plan Plan) ([]Row, Schema, error) {
	schema, err := plan.Schema()
	if err != nil {
		return nil, nil, err
	}
	optimized, _ := Optimize(plan)
	ds, err := (&compiler{eng: e}).compile(optimized)
	if err != nil {
		return nil, nil, err
	}
	rows, err := ds.Collect()
	return rows, schema, err
}

// assertByteIdentical runs plan through Execute and through executeRows and
// requires identical rows in identical order — the equivalence contract the
// physical layer promises (not just multiset equality). Filter and Project
// keep a row form and a kernel form, so this is what holds the kernels and
// the converters to the row operators; the aggregate above them is one fold
// either way.
func assertByteIdentical(t *testing.T, plan Plan) {
	t.Helper()
	colRows, colSchema, colErr := Execute(eng(), plan)
	rowRows, rowSchema, rowErr := executeRows(eng(), plan)
	if (colErr == nil) != (rowErr == nil) {
		t.Fatalf("error divergence: columnar=%v row=%v", colErr, rowErr)
	}
	if colErr != nil {
		return
	}
	if !schemasEqual(colSchema, rowSchema) {
		t.Fatalf("schema divergence: columnar=%v row=%v", colSchema, rowSchema)
	}
	if len(colRows) != len(rowRows) {
		t.Fatalf("row count divergence: columnar=%d row=%d", len(colRows), len(rowRows))
	}
	for i := range colRows {
		if rowKey(colRows[i]) != rowKey(rowRows[i]) {
			t.Fatalf("row %d diverged:\ncolumnar %v\nrow      %v", i, colRows[i], rowRows[i])
		}
	}
}

// wideScan exercises all four column kinds plus values with delicate
// equality semantics (NaN, negative zero, int magnitudes beyond 2^53 whose
// float widening collapses them).
func wideScan() *ScanPlan {
	cols := Schema{
		{Name: "k", Kind: KindInt},
		{Name: "f", Kind: KindFloat},
		{Name: "s", Kind: KindString},
		{Name: "b", Kind: KindBool},
	}
	rows := []Row{
		{Int(1), Float(1.5), Str("a"), Bool(true)},
		{Int(2), Float(math.NaN()), Str("b"), Bool(false)},
		{Int(3), Float(math.Copysign(0, -1)), Str("a"), Bool(true)},
		{Int(1 << 55), Float(2.5), Str("c"), Bool(false)},
		{Int(1<<55 + 1), Float(0), Str("b"), Bool(true)},
		{Int(-4), Float(-7.25), Str(""), Bool(false)},
	}
	return Scan("wide", cols, rows)
}

func TestColumnarFilterProjectByteIdentical(t *testing.T) {
	plans := []Plan{
		// Arithmetic + const comparisons + AND/OR over every kind.
		Where(wideScan(), And(
			Gt(Add(Col("f"), Lit(Float(1))), Lit(Float(0))),
			Or(Eq(Col("s"), Lit(Str("a"))), Not(Col("b"))),
		)),
		// Direct same-kind float equality: NaN ≠ NaN must filter NaN out.
		Where(wideScan(), Eq(Col("f"), Col("f"))),
		// Mixed int/float equality routes through Compare: NaN "equals"
		// everything, and 2^55 vs 2^55+1 collapse under widening.
		Where(wideScan(), Eq(Col("k"), Col("f"))),
		// Int ordering widens too (the row path's Compare does).
		Where(wideScan(), Le(Col("k"), Lit(Int(1<<55)))),
		// Projection with int and float arithmetic, literals on both sides.
		Project(wideScan(),
			NamedExpr{Name: "ka", Expr: Mul(Col("k"), Lit(Int(3)))},
			NamedExpr{Name: "kb", Expr: Sub(Lit(Int(100)), Col("k"))},
			NamedExpr{Name: "fa", Expr: Add(Col("f"), Col("f"))},
			NamedExpr{Name: "neg", Expr: Lt(Col("f"), Lit(Float(0)))},
			NamedExpr{Name: "s", Expr: Col("s")},
		),
		// Filter → project → filter chain fused into one pipeline.
		Where(
			Project(
				Where(wideScan(), Ge(Col("f"), Lit(Float(-10)))),
				NamedExpr{Name: "g", Expr: Add(Col("f"), Lit(Float(1)))},
				NamedExpr{Name: "b", Expr: Col("b")},
			),
			Col("b"),
		),
		// String and bool orderings.
		Where(wideScan(), And(Lt(Col("s"), Lit(Str("c"))), Ge(Col("b"), Lit(Bool(true))))),
	}
	for i, plan := range plans {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("plan %d panicked: %v", i, r)
				}
			}()
			assertByteIdentical(t, plan)
		}()
	}
}

func TestColumnarAggregateByteIdentical(t *testing.T) {
	plans := []Plan{
		// Grouped aggregate over all five functions with expression args.
		GroupBy(wideScan(), []string{"s", "b"},
			AggSpec{Name: "n", Func: AggCount},
			AggSpec{Name: "sum", Func: AggSum, Arg: Add(Col("f"), Lit(Float(0.5)))},
			AggSpec{Name: "avg", Func: AggAvg, Arg: Col("f")},
			AggSpec{Name: "min", Func: AggMin, Arg: Col("f")},
			AggSpec{Name: "max", Func: AggMax, Arg: Col("k")},
		),
		// Global aggregate.
		GroupBy(Where(wideScan(), Gt(Col("f"), Lit(Float(-100)))), nil,
			AggSpec{Name: "n", Func: AggCount},
			AggSpec{Name: "total", Func: AggSum, Arg: Col("f")},
		),
		// Empty global aggregate exercises the fallback row on both paths.
		GroupBy(Where(wideScan(), Lt(Col("s"), Lit(Str("")))), nil,
			AggSpec{Name: "n", Func: AggCount},
		),
		// NaN flows through sum/min/max folds.
		GroupBy(wideScan(), []string{"b"},
			AggSpec{Name: "mn", Func: AggMin, Arg: Col("f")},
			AggSpec{Name: "mx", Func: AggMax, Arg: Col("f")},
			AggSpec{Name: "sm", Func: AggSum, Arg: Col("f")},
		),
	}
	for _, plan := range plans {
		assertByteIdentical(t, plan)
	}
}

// TestColumnarFallsBackOnDivision pins the deliberate hole in the fragment:
// division can fail, so plans containing it stay on the row path — and
// still execute identically.
func TestColumnarFallsBackOnDivision(t *testing.T) {
	plan := Project(wideScan(),
		NamedExpr{Name: "half", Expr: Div(Col("f"), Lit(Float(2)))},
	)
	phys := BuildPhysical(plan)
	if phys.Strategy != StrategyRow {
		t.Fatalf("division plan got strategy %s, want row", phys.Strategy)
	}
	assertByteIdentical(t, plan)
}

func TestBuildPhysicalStrategies(t *testing.T) {
	// A vectorizable aggregate chain is columnar end to end.
	agg := GroupBy(Where(wideScan(), Col("b")), []string{"s"},
		AggSpec{Name: "n", Func: AggCount})
	phys := BuildPhysical(agg)
	for n := phys; n != nil; {
		if n.Strategy != StrategyColumnar {
			t.Fatalf("%T strategy %s, want columnar", n.Logical, n.Strategy)
		}
		if len(n.Children) == 0 {
			break
		}
		n = n.Children[0]
	}

	// A bare scan stays row: no kernel would run over the batch.
	if got := BuildPhysical(wideScan()).Strategy; got != StrategyRow {
		t.Fatalf("bare scan strategy %s, want row", got)
	}

	// Joins are row, but their vectorizable inputs go columnar.
	join := JoinOn(
		Where(ordersScan(), Gt(Col("price"), Lit(Float(0)))),
		"custkey", customersScan(), "custkey")
	phys = BuildPhysical(join)
	if phys.Strategy != StrategyRow {
		t.Fatalf("join strategy %s, want row", phys.Strategy)
	}
	if len(phys.Children) != 2 {
		t.Fatalf("join has %d physical children", len(phys.Children))
	}
	if phys.Children[0].Strategy != StrategyColumnar {
		t.Fatalf("join left input strategy %s, want columnar", phys.Children[0].Strategy)
	}
	// The bare right-side scan stays row.
	if phys.Children[1].Strategy != StrategyRow {
		t.Fatalf("join right input strategy %s, want row", phys.Children[1].Strategy)
	}
}

// TestColumnarAccountsBatches checks the engine metrics seam: the columnar
// path reports batch windows, row-at-a-time execution reports none.
func TestColumnarAccountsBatches(t *testing.T) {
	plan := Where(wideScan(), Gt(Col("f"), Lit(Float(-100))))

	e := eng()
	if _, _, err := Execute(e, plan); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.BatchesProcessed == 0 || m.RecordsBatched == 0 {
		t.Fatalf("columnar execution reported %d batches over %d records", m.BatchesProcessed, m.RecordsBatched)
	}

	e = eng()
	if _, _, err := executeRows(e, plan); err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if m.BatchesProcessed != 0 || m.RecordsBatched != 0 {
		t.Fatalf("row execution reported %d batches over %d records", m.BatchesProcessed, m.RecordsBatched)
	}
}

// TestExplainIdempotent pins that Explain is a pure function of the plan:
// rendering twice (including the physical section) yields identical bytes.
func TestExplainIdempotent(t *testing.T) {
	plans := []Plan{filterOverJoinPlan(), projectionHeavyPlan(), limitPlanUnderTest()}
	for i, plan := range plans {
		if a, b := Explain(plan), Explain(plan); a != b {
			t.Fatalf("plan %d: Explain not idempotent:\n%s\n---\n%s", i, a, b)
		}
	}
}

// TestRowsToBatchRejectsMismatch pins the strict seam: a cell that
// contradicts the declared schema aborts instead of silently diverging.
func TestRowsToBatchRejectsMismatch(t *testing.T) {
	schema := Schema{{Name: "x", Kind: KindInt}}
	if _, err := rowsToBatch(schema, []Row{{Float(1)}}); err == nil {
		t.Fatal("kind mismatch not rejected")
	}
	if _, err := rowsToBatch(schema, []Row{{Int(1), Int(2)}}); err == nil {
		t.Fatal("width mismatch not rejected")
	}
	b, err := rowsToBatch(schema, []Row{{Int(7)}})
	if err != nil {
		t.Fatal(err)
	}
	rows := appendBatchRows(nil, b)
	if len(rows) != 1 || rowKey(rows[0]) != rowKey(Row{Int(7)}) {
		t.Fatalf("round trip produced %v", rows)
	}
}

package sql

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"upa/internal/core"
	"upa/internal/mapreduce"
	"upa/internal/stats"
)

var dpCompilers = []struct {
	name    string
	compile func(*mapreduce.Engine, Plan, string) (core.Query[int64], []int64, error)
}{
	{"columnar", CompileDPCount},
	{"raw", CompileDPCountRaw},
}

// influencePlanOf is compileDPCount's influence plan of a counting plan:
// GROUP BY the hidden index, COUNT(*) over the tagged interior.
func influencePlanOf(t *testing.T, plan Plan, protectedTable string) (Plan, *ScanPlan) {
	t.Helper()
	agg, err := countRootOf(plan)
	if err != nil {
		t.Fatal(err)
	}
	protected := findScans(agg.Input, protectedTable)[0]
	tagged, err := tagProtectedScan(agg.Input, protected, dpIdxCol)
	if err != nil {
		t.Fatal(err)
	}
	return GroupBy(tagged, []string{dpIdxCol}, AggSpec{Name: "influence", Func: AggCount}), protected
}

// referenceInfluence computes the influence vector the slow, plainly right
// way: the tagged tree under a real GROUP BY __protected_idx, COUNT(*),
// executed as written through ExecuteRaw's hash aggregate. It is what the
// dense tally replaced, kept here as the oracle.
func referenceInfluence(t *testing.T, plan Plan, protectedTable string) []int64 {
	t.Helper()
	perRow, protected := influencePlanOf(t, plan, protectedTable)
	rows, _, err := ExecuteRaw(eng(), perRow)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, protected.numRows())
	for _, r := range rows {
		idx, _ := r[0].AsInt()
		want[idx], _ = r[1].AsInt()
	}
	return want
}

// assertInfluence compiles plan with every DP compiler and requires each
// compiled query to map protected row i to want[i].
func assertInfluence(t *testing.T, plan Plan, protectedTable string, want []int64) {
	t.Helper()
	for _, dc := range dpCompilers {
		q, data, err := dc.compile(eng(), plan, protectedTable)
		if err != nil {
			t.Fatalf("%s: %v", dc.name, err)
		}
		if len(data) != len(want) {
			t.Fatalf("%s: %d protected records, want %d", dc.name, len(data), len(want))
		}
		for i, v := range data {
			if v != want[i] {
				t.Fatalf("%s: record %d = %d, want influence %d", dc.name, i, v, want[i])
			}
			if got := q.Map(v)[0]; got != float64(want[i]) {
				t.Fatalf("%s: influence of row %d = %v, want %d", dc.name, i, got, want[i])
			}
		}
	}
}

// countsKeys is the strategy probe: whether CompileDPCount computes the
// influence of plan's protectedTable rows by key counting (true) or by the
// tally over the materialized join (false).
func countsKeys(t *testing.T, plan Plan, protectedTable string) bool {
	t.Helper()
	perRow, _ := influencePlanOf(t, plan, protectedTable)
	compiled, _ := interiorColumnar.lower(eng(), perRow)
	_, ok := keyCountPlan(compiled)
	return ok
}

// Influence shapes beyond planGen.base, each deciding the DP bridge's
// strategy one way.
const (
	shapeCrossFilter = iota // a filter over both join sides: falls back
	shapeStringKey          // a join on string columns: counted
	shapeFloatKey           // a join on float columns: falls back
	shapeThreeWay           // a message through an intermediate relation: counted
	influenceShapes
)

// influenceBase builds a join of two or three random tables in the given
// shape, each side optionally filtered on its own columns.
func (g *planGen) influenceBase(shape int) Plan {
	left := g.table("l", 5+g.rng.Intn(16))
	right := g.table("r", 2+g.rng.Intn(10))
	lp := g.withSchema(left.Cols, func() Plan { return g.maybeFilter(left) })
	rp := g.withSchema(right.Cols, func() Plan { return g.maybeFilter(right) })
	switch shape {
	case shapeCrossFilter:
		return Where(JoinOn(lp, "l_key", rp, "r_key"), Lt(Col("l_i"), Col("r_i")))
	case shapeStringKey:
		return JoinOn(lp, "l_s", rp, "r_s")
	case shapeFloatKey:
		return JoinOn(lp, "l_f", rp, "r_f")
	default:
		// The third table hangs off r's non-key column, so protecting l
		// counts x's keys into r's and r's into l's.
		extra := g.table("x", 2+g.rng.Intn(10))
		xp := g.withSchema(extra.Cols, func() Plan { return g.maybeFilter(extra) })
		return JoinOn(lp, "l_key", JoinOn(rp, "r_i", xp, "x_key"), "r_key")
	}
}

// TestDenseInfluenceMatchesGroupBy is the influence property test: over
// the count plans of the optimizer's seeded plan generator (a scan or a join
// of two scans, each side optionally filtered) and of influenceBase's
// shapes, protecting each table in turn, the dense vector of every DP
// compiler equals the reference GROUP BY. The strategy probe requires each
// shape to take its strategy, and both strategies to run on at least ten of
// the plans.
func TestDenseInfluenceMatchesGroupBy(t *testing.T) {
	const plans, perShape = 80, 10
	strategies := map[bool]int{}
	check := func(i int, plan Plan, counted func(table string) bool) {
		plan = GroupBy(plan, nil, AggSpec{Name: "n", Func: AggCount})
		for _, table := range TableNames(plan) {
			got := countsKeys(t, plan, table)
			if want := counted(table); got != want {
				t.Errorf("plan%02d/%s: key counting %v, want %v: %s", i, table, got, want, Describe(plan))
			}
			strategies[got]++
			t.Run(fmt.Sprintf("plan%02d/%s", i, table), func(t *testing.T) {
				t.Logf("plan: %s", Describe(plan))
				assertInfluence(t, plan, table, referenceInfluence(t, plan, table))
			})
		}
	}
	always := func(string) bool { return true }
	for i := 0; i < plans; i++ {
		g := &planGen{rng: stats.NewRNG(0x9E3779B97F4A7C15).Split(uint64(i))}
		check(i, g.base(), always)
	}
	for i := plans; i < plans+influenceShapes*perShape; i++ {
		g := &planGen{rng: stats.NewRNG(0x9E3779B97F4A7C15).Split(uint64(i))}
		shape := i % influenceShapes
		counted := shape == shapeStringKey || shape == shapeThreeWay
		check(i, g.influenceBase(shape), func(string) bool { return counted })
	}
	if strategies[true] < 10 || strategies[false] < 10 {
		t.Fatalf("key counting ran on %d plans, the fallback on %d: want at least 10 each",
			strategies[true], strategies[false])
	}
}

// TestDenseInfluenceZeroRows pins the vector's defaults: a protected row no
// output tuple descends from — filtered out, or without a join partner —
// has influence 0, and an always-false filter (which the optimizer replaces
// by an empty relation) zeroes every row.
func TestDenseInfluenceZeroRows(t *testing.T) {
	filtered := GroupBy(
		Where(ordersScan(), Eq(Col("status"), Lit(Str("F")))),
		nil, AggSpec{Name: "n", Func: AggCount})
	assertInfluence(t, filtered, "orders", []int64{1, 0, 1, 1, 0})

	// custkey 10 joins three lineitems, 11 and 12 one each; price > 60 then
	// drops the 50-priced order.
	assertInfluence(t, q4ish(ordersScan(), lineitemsScan()), "orders", []int64{3, 1, 0, 1, 1})

	never := GroupBy(
		Where(ordersScan(), And(Gt(Col("price"), Lit(Float(0))), Lit(Bool(false)))),
		nil, AggSpec{Name: "n", Func: AggCount})
	assertInfluence(t, never, "orders", []int64{0, 0, 0, 0, 0})
}

// TestDenseInfluenceEmptyProtectedTable compiles over a protected relation
// with no rows: an empty vector and no records, not an error.
func TestDenseInfluenceEmptyProtectedTable(t *testing.T) {
	empty := Scan("orders", ordersScan().Cols, nil)
	scanOnly := GroupBy(
		Where(empty, Gt(Col("price"), Lit(Float(60)))),
		nil, AggSpec{Name: "n", Func: AggCount})
	assertInfluence(t, scanOnly, "orders", nil)
	assertInfluence(t, q4ish(empty, lineitemsScan()), "orders", nil)
	// The other side of the join still gets its (all-zero) vector.
	assertInfluence(t, q4ish(empty, lineitemsScan()), "lineitem", make([]int64, 5))
}

// TestImageRejectsKindMismatch pins the strict seam now that conversion
// happens once per relation: a cell contradicting its declared kind fails
// the columnar paths with exactly rowsToBatch's error, on first use and on
// every use after it.
func TestImageRejectsKindMismatch(t *testing.T) {
	cols := Schema{{Name: "k", Kind: KindInt}, {Name: "v", Kind: KindInt}}
	rows := []Row{{Int(1), Int(10)}, {Int(2), Float(2.5)}, {Int(3), Int(30)}}
	_, want := rowsToBatch(cols, rows)
	if want == nil {
		t.Fatal("rowsToBatch accepted a float in an int column")
	}
	bad := Scan("t", cols, rows)
	filtered := Where(bad, Gt(Col("k"), Lit(Int(0))))
	plan := GroupBy(filtered, nil, AggSpec{Name: "n", Func: AggCount})
	for attempt := 0; attempt < 2; attempt++ {
		if _, _, err := CompileDPCount(eng(), plan, "t"); err == nil || err.Error() != want.Error() {
			t.Fatalf("CompileDPCount: error %v, want %v", err, want)
		}
		if _, _, err := Execute(eng(), filtered); err == nil || err.Error() != want.Error() {
			t.Fatalf("Execute: error %v, want %v", err, want)
		}
	}
}

// TestScanViewsShareTheRelation pins what a derived scan is: a pruned or
// tagged scan copies no rows, reads the base relation's image (the very same
// vectors, not equal ones), and composes with further pruning.
func TestScanViewsShareTheRelation(t *testing.T) {
	base := ordersScan()
	image, err := base.columns()
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := tagProtectedScan(base, base, dpIdxCol)
	if err != nil {
		t.Fatal(err)
	}
	view := tagged.(*ScanPlan).derive(
		Schema{{Name: dpIdxCol, Kind: KindInt}, {Name: "price", Kind: KindFloat}}, []int{4, 2})
	if view.Rows != nil || view.numRows() != base.numRows() {
		t.Fatalf("view holds %d rows of its own, reports %d", len(view.Rows), view.numRows())
	}
	cols, err := view.columns()
	if err != nil {
		t.Fatal(err)
	}
	if &cols[1].F64[0] != &image[2].F64[0] {
		t.Fatal("view's price vector is a copy of the image's")
	}
	rows, err := view.rows()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if rowKey(r) != rowKey(Row{Int(int64(i)), base.Rows[i][2]}) || cols[0].I64[i] != int64(i) {
			t.Fatalf("row %d of the view is %v", i, r)
		}
	}
}

// TestImageSharedAcrossGoroutines is the serving layer's access pattern: many
// requests compile plans over one freshly planned relation at once, so the
// first of them builds the image while the others wait for it, and all of
// them then read it. Run under -race.
func TestImageSharedAcrossGoroutines(t *testing.T) {
	orders := ordersScan()
	plan := q4ish(orders, lineitemsScan())
	want := referenceInfluence(t, plan, "orders")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, data, err := CompileDPCount(eng(), plan, "orders")
			if err != nil {
				t.Error(err)
				return
			}
			for i, ir := range data {
				if got := q.Map(ir)[0]; got != float64(want[i]) {
					t.Errorf("influence of row %d = %v, want %d", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestPartBoundsMatchFromSlice pins the columnar scan's partitioning to the
// engine's: the image spans tasks read are the partitions FromSlice cuts.
func TestPartBoundsMatchFromSlice(t *testing.T) {
	e := mapreduce.NewEngine()
	for _, n := range []int{0, 1, 5, 1024, 2049} {
		data := make([]int, n)
		for i := range data {
			data[i] = i
		}
		for _, parts := range []int{1, 2, 3, 7} {
			ds, err := mapreduce.FromSlice(e, data, parts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ds.CollectPartitionsCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for p, part := range got {
				lo, hi := partBounds(n, parts, p)
				if len(part) != hi-lo || (len(part) > 0 && part[0] != lo) {
					t.Fatalf("n=%d parts=%d p=%d: engine holds %d rows from %v, partBounds says [%d,%d)",
						n, parts, p, len(part), part, lo, hi)
				}
			}
		}
	}
}

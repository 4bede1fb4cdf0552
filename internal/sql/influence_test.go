package sql

import (
	"fmt"
	"sync"
	"testing"

	"upa/internal/core"
	"upa/internal/mapreduce"
	"upa/internal/stats"
)

var dpCompilers = []struct {
	name    string
	compile func(*mapreduce.Engine, Plan, string) (core.Query[IndexedRow], []IndexedRow, error)
}{
	{"columnar", CompileDPCount},
	{"raw", CompileDPCountRaw},
}

// referenceInfluence computes the influence vector the slow, plainly right
// way: the tagged tree under a real GROUP BY __protected_idx, COUNT(*),
// executed as written through ExecuteRaw's hash aggregate. It is what the
// dense tally replaced, kept here as the oracle.
func referenceInfluence(t *testing.T, plan Plan, protectedTable string) []int64 {
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
	rows, _, err := ExecuteRaw(eng(), GroupBy(tagged, []string{dpIdxCol}, AggSpec{Name: "influence", Func: AggCount}))
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
		for i, ir := range data {
			if ir.Idx != i {
				t.Fatalf("%s: record %d carries index %d", dc.name, i, ir.Idx)
			}
			if got := q.Map(ir)[0]; got != float64(want[i]) {
				t.Fatalf("%s: influence of row %d = %v, want %d", dc.name, i, got, want[i])
			}
		}
	}
}

// TestDenseInfluenceMatchesGroupBy is the tally's property test: over the
// count plans of the optimizer's seeded plan generator (a scan or a join of
// two scans, each side optionally filtered), protecting either table, the
// dense vector of every DP compiler equals the reference GROUP BY.
func TestDenseInfluenceMatchesGroupBy(t *testing.T) {
	const plans = 80
	for i := 0; i < plans; i++ {
		g := &planGen{rng: stats.NewRNG(0x9E3779B97F4A7C15).Split(uint64(i))}
		plan := GroupBy(g.base(), nil, AggSpec{Name: "n", Func: AggCount})
		for _, table := range TableNames(plan) {
			t.Run(fmt.Sprintf("plan%02d/%s", i, table), func(t *testing.T) {
				t.Logf("plan: %s", Describe(plan))
				assertInfluence(t, plan, table, referenceInfluence(t, plan, table))
			})
		}
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
			got, err := ds.CollectPartitions()
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

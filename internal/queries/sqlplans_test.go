package queries

import (
	"math"
	"testing"

	"upa/internal/mapreduce"
	"upa/internal/sql"
)

// TestSQLPlansMatchMappers cross-validates the relational plans against the
// hand-written Mapper/Reducer query forms the DP path executes: both layers
// must compute identical answers on the same database.
func TestSQLPlansMatchMappers(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()

	tests := []struct {
		name   string
		plan   sql.Plan
		runner Runner
	}{
		{"TPCH1", TPCH1Plan(w.DB), w.TPCH1()},
		{"TPCH4", TPCH4Plan(w.DB), w.TPCH4()},
		{"TPCH13", TPCH13Plan(w.DB), w.TPCH13()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n, err := sql.ExecuteCount(eng, tt.plan)
			if err != nil {
				t.Fatalf("ExecuteCount: %v", err)
			}
			out, err := tt.runner.RunVanilla(eng)
			if err != nil {
				t.Fatalf("RunVanilla: %v", err)
			}
			if float64(n) != out[0] {
				t.Fatalf("SQL plan = %d, Mapper/Reducer = %v", n, out[0])
			}
		})
	}
}

func TestTPCH6PlanMatchesMapper(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	rows, _, err := sql.Execute(eng, TPCH6Plan(w.DB))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("TPCH6 plan returned %d rows", len(rows))
	}
	got, _ := rows[0][0].AsFloat()
	out, err := w.TPCH6().RunVanilla(eng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-out[0]) > 1e-6*math.Max(1, out[0]) {
		t.Fatalf("SQL plan = %v, Mapper/Reducer = %v", got, out[0])
	}
}

func TestTPCH1FullPlan(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	rows, schema, err := sql.Execute(eng, TPCH1FullPlan(w.DB))
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 10 {
		t.Fatalf("schema has %d columns, want 10", len(schema))
	}
	// Reference computation per (returnflag, linestatus) group.
	type agg struct {
		qty, price, disc, discPrice, charge float64
		n                                   float64
	}
	ref := map[[2]string]*agg{}
	for _, l := range w.DB.Lineitems {
		if l.ShipDate > tpch1Cutoff {
			continue
		}
		k := [2]string{l.ReturnFlag, l.LineStatus}
		a := ref[k]
		if a == nil {
			a = &agg{}
			ref[k] = a
		}
		a.qty += l.Quantity
		a.price += l.ExtendedPrice
		a.disc += l.Discount
		dp := l.ExtendedPrice * (1 - l.Discount)
		a.discPrice += dp
		a.charge += dp * (1 + l.Tax)
		a.n++
	}
	if len(rows) != len(ref) {
		t.Fatalf("%d groups, want %d", len(rows), len(ref))
	}
	prevKey := ""
	for _, r := range rows {
		rf, _ := r[0].AsString()
		ls, _ := r[1].AsString()
		key := rf + "|" + ls
		if key < prevKey {
			t.Fatalf("ORDER BY broken: %q after %q", key, prevKey)
		}
		prevKey = key
		a := ref[[2]string{rf, ls}]
		if a == nil {
			t.Fatalf("unexpected group %q/%q", rf, ls)
		}
		checks := []struct {
			col  int
			want float64
		}{
			{2, a.qty}, {3, a.price}, {4, a.discPrice}, {5, a.charge},
			{6, a.qty / a.n}, {7, a.price / a.n}, {8, a.disc / a.n},
		}
		for _, c := range checks {
			got, _ := r[c.col].AsFloat()
			if math.Abs(got-c.want) > 1e-6*math.Max(1, math.Abs(c.want)) {
				t.Fatalf("group %s/%s column %d = %v, want %v", rf, ls, c.col, got, c.want)
			}
		}
		if n, _ := r[9].AsInt(); float64(n) != a.n {
			t.Fatalf("group %s/%s count = %d, want %v", rf, ls, n, a.n)
		}
	}
}

// TestSQLFLEXExtractionMatchesHandBuilt verifies that walking the plan tree
// yields the same FLEX sensitivity as the hand-built plan metadata for the
// single-join count queries.
func TestSQLFLEXExtractionMatchesHandBuilt(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()

	tests := []struct {
		name   string
		plan   sql.Plan
		runner Runner
	}{
		{"TPCH4", TPCH4Plan(w.DB), w.TPCH4()},
		{"TPCH13", TPCH13Plan(w.DB), w.TPCH13()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fromSQL, err := sql.FLEXPlan(eng, tt.name, tt.plan)
			if err != nil {
				t.Fatal(err)
			}
			if !fromSQL.CountQuery {
				t.Fatal("count plan not detected")
			}
			handBuilt := tt.runner.FLEXPlan()
			sqlSens, err := fromSQL.LocalSensitivity()
			if err != nil {
				t.Fatal(err)
			}
			handSens, err := handBuilt.LocalSensitivity()
			if err != nil {
				t.Fatal(err)
			}
			if sqlSens != handSens {
				t.Fatalf("FLEX sensitivity from plan tree = %v, hand-built = %v", sqlSens, handSens)
			}
		})
	}
}

func TestTPCH6PlanNotFLEXSupported(t *testing.T) {
	w := testWorkload(t)
	p, err := sql.FLEXPlan(mapreduce.NewEngine(), "TPCH6", TPCH6Plan(w.DB))
	if err != nil {
		t.Fatal(err)
	}
	if p.CountQuery {
		t.Fatal("sum plan detected as count")
	}
}

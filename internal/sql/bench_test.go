package sql_test

import (
	"testing"

	"upa/internal/core"
	"upa/internal/mapreduce"
	"upa/internal/queries"
	"upa/internal/sql"
	"upa/internal/tpch"
)

// compiled, released and aggregated keep the benchmarked calls' results
// live.
var (
	compiled   []int64
	released   *core.Result
	aggregated []sql.Row
)

// benchDPCount runs one sub-benchmark per canned DP shape — a filtered scan
// protecting its own 100 000 rows, and the two joins protecting either side
// — timing op on a fresh engine, with allocations reported.
func benchDPCount(b *testing.B, op func(b *testing.B, eng *mapreduce.Engine, plan sql.Plan, protected string)) {
	db, err := tpch.Generate(tpch.Config{Lineitems: 100000, Skew: 0.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rels := queries.NewRelations(db)
	cases := []struct {
		name, plan, protected string
	}{
		{"tpch1_lineitem", "tpch1", "lineitem"},
		{"tpch4_orders", "tpch4", "orders"},
		{"tpch4_lineitem", "tpch4", "lineitem"},
		{"tpch13_orders", "tpch13", "orders"},
		{"tpch13_customer", "tpch13", "customer"},
	}
	for _, tc := range cases {
		plan, err := rels.Plan(tc.plan)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			eng := mapreduce.NewEngine()
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(b, eng, plan, tc.protected)
			}
		})
	}
}

// BenchmarkCompileDPCount times one influence compilation per iteration —
// the whole cost of a release-cache miss ahead of core.Run. Run with
// -benchmem: bytes/op is the number the resident columnar image and the
// key-count maps move.
func BenchmarkCompileDPCount(b *testing.B) {
	benchDPCount(b, func(b *testing.B, eng *mapreduce.Engine, plan sql.Plan, protected string) {
		_, data, err := sql.CompileDPCount(eng, plan, protected)
		if err != nil {
			b.Fatal(err)
		}
		compiled = data
	})
}

// BenchmarkDPCountRelease times a whole release-cache miss per iteration:
// the influence compilation and the core.Run release over its records, at
// n = 1 000 and ε = 0.1. Run with -benchmem: bytes/op and allocs/op are
// what one DP-count release costs end to end below the serving layer.
func BenchmarkDPCountRelease(b *testing.B) {
	benchDPCount(b, func(b *testing.B, eng *mapreduce.Engine, plan sql.Plan, protected string) {
		q, data, err := sql.CompileDPCount(eng, plan, protected)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.SampleSize = 1000
		cfg.Epsilon = 0.1
		sys, err := core.NewSystem(eng, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(sys, q, data, nil)
		if err != nil {
			b.Fatal(err)
		}
		released = res
	})
}

// BenchmarkAggregateOverJoin times the row-fed aggregate: a join has no
// columnar form, so the fold above it is fed row by row. grouped is TPC-H
// Q13's customer⋈orders join under GROUP BY c_custkey, COUNT(*) (one group
// per customer); global is Q13's counting form itself (its filter sits
// between the join and the count). Run with -benchmem: allocs/op is the
// number the per-partition fold moves.
func BenchmarkAggregateOverJoin(b *testing.B) {
	db, err := tpch.Generate(tpch.Config{Lineitems: 100000, Skew: 0.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	join := sql.JoinOn(queries.CustomerRelation(db), "c_custkey", queries.OrdersRelation(db), "o_custkey")
	cases := []struct {
		name string
		plan sql.Plan
	}{
		{"grouped", sql.GroupBy(join, []string{"c_custkey"}, sql.AggSpec{Name: "orders", Func: sql.AggCount})},
		{"global", queries.TPCH13Plan(db)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			eng := mapreduce.NewEngine()
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, _, err := sql.Execute(eng, tc.plan)
				if err != nil {
					b.Fatal(err)
				}
				aggregated = rows
			}
		})
	}
}

package sql_test

import (
	"reflect"
	"testing"

	"upa/internal/core"
	"upa/internal/mapreduce"
	"upa/internal/queries"
	"upa/internal/sql"
	"upa/internal/tpch"
)

// TestMapIntoDPCountReleaseMatchesMap releases every canned DP-count plan
// twice, once through the compiled query's in-place MapInto and once with
// MapInto cleared so the fold maps each influence with Map, and requires
// the two results to be identical in every field but the wall-clock
// timings, engine counters included.
func TestMapIntoDPCountReleaseMatchesMap(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lineitems: 2000, Skew: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rels := queries.NewRelations(db)
	for _, tc := range []struct{ plan, protected string }{
		{"tpch1", "lineitem"},
		{"tpch4", "orders"},
		{"tpch4", "lineitem"},
		{"tpch13", "orders"},
		{"tpch13", "customer"},
	} {
		t.Run(tc.plan+"/"+tc.protected, func(t *testing.T) {
			plan, err := rels.Plan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			q, data, err := sql.CompileDPCount(mapreduce.NewEngine(), plan, tc.protected)
			if err != nil {
				t.Fatal(err)
			}
			if q.MapInto == nil {
				t.Fatal("CompileDPCount's query has no MapInto")
			}
			mapOnly := q
			mapOnly.MapInto = nil
			withInto, withMap := releaseDPCount(t, q, data), releaseDPCount(t, mapOnly, data)
			if !reflect.DeepEqual(withInto, withMap) {
				t.Fatalf("release through MapInto\n%+v\ndiffers from the release through Map\n%+v", withInto, withMap)
			}

			q.Reduce = core.VectorAdd
			if err := q.Validate(); err == nil {
				t.Fatal("Validate accepted MapInto together with a Reduce")
			}
		})
	}
}

// releaseDPCount runs one seeded release of q on a fresh engine and system
// and returns its result with the wall-clock fields cleared.
func releaseDPCount(t *testing.T, q core.Query[int64], data []int64) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SampleSize = 200
	cfg.Epsilon = 0.5
	cfg.Seed = 42
	sys, err := core.NewSystem(mapreduce.NewEngine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(sys, q, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Phases = core.PhaseTimings{}
	res.Spans = nil
	return res
}

// TestDPCountReleaseAllocsFlatInData guards the fused fold of the remaining
// influences: a DP-count release at n = 1 000 allocates no more over
// 400 000 influences than over 100 000, within 100 allocations, because
// the fold reads the influences in place and adds them into one
// accumulator per partition. Mapping each influence to a State, or
// compacting S′, would add hundreds of thousands.
func TestDPCountReleaseAllocsFlatInData(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lineitems: 2000, Skew: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := queries.NewRelations(db).Plan("tpch1")
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := sql.CompileDPCount(mapreduce.NewEngine(), plan, "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(records int) float64 {
		data := make([]int64, records)
		for i := range data {
			data[i] = int64(i % 3)
		}
		cfg := core.DefaultConfig()
		cfg.SampleSize = 1000
		cfg.Epsilon = 0.1
		eng := mapreduce.NewEngine(mapreduce.WithWorkers(2))
		return testing.AllocsPerRun(5, func() {
			sys, err := core.NewSystem(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Run(sys, q, data, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100_000), allocs(400_000)
	t.Logf("allocations per release: %.0f over 100 000 influences, %.0f over 400 000", small, large)
	if diff := large - small; diff >= 100 || diff <= -100 {
		t.Fatalf("a release allocates %.0f times over 100 000 influences and %.0f over 400 000; want fewer than 100 apart", small, large)
	}
}

package queries

import (
	"testing"
	"time"

	"upa/internal/chaos"
	"upa/internal/core"
	"upa/internal/mapreduce"
	"upa/internal/sql"
	"upa/internal/tpch"
)

// dpCases is every (canned count plan, protected relation) pair the serving
// layer accepts.
var dpCases = []struct{ plan, protected string }{
	{"tpch1", "lineitem"},
	{"tpch4", "orders"},
	{"tpch4", "lineitem"},
	{"tpch13", "orders"},
	{"tpch13", "customer"},
}

func influenceDB(t *testing.T) *tpch.DB {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{Lineitems: 2000, Skew: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// withRowIndex copies a relation, appending each row's position as a visible
// row_idx column — the influence plan's tagging done by hand, with nothing
// but the public plan constructors.
func withRowIndex(base *sql.ScanPlan) *sql.ScanPlan {
	cols := append(append(sql.Schema{}, base.Cols...), sql.Column{Name: "row_idx", Kind: sql.KindInt})
	rows := make([]sql.Row, len(base.Rows))
	for i, r := range base.Rows {
		rows[i] = append(append(sql.Row{}, r...), sql.Int(int64(i)))
	}
	return sql.Scan(base.Name, cols, rows)
}

// TestDenseInfluenceMatchesGroupByOnTPCH checks the compiled influence
// vector of every canned DP plan against the reference it replaced: the same
// plan over a hand-indexed copy of the protected relation, grouped by that
// index and executed as written through ExecuteRaw's hash aggregate.
func TestDenseInfluenceMatchesGroupByOnTPCH(t *testing.T) {
	rels := NewRelations(influenceDB(t))
	for _, tc := range dpCases {
		t.Run(tc.plan+"/"+tc.protected, func(t *testing.T) {
			indexed := rels
			var n int
			switch tc.protected {
			case "lineitem":
				indexed.Lineitem, n = withRowIndex(rels.Lineitem), len(rels.Lineitem.Rows)
			case "orders":
				indexed.Orders, n = withRowIndex(rels.Orders), len(rels.Orders.Rows)
			case "customer":
				indexed.Customer, n = withRowIndex(rels.Customer), len(rels.Customer.Rows)
			}
			counted, err := indexed.Plan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			perRow := sql.GroupBy(counted.(*sql.AggregatePlan).Input, []string{"row_idx"},
				sql.AggSpec{Name: "influence", Func: sql.AggCount})
			groups, _, err := sql.ExecuteRaw(mapreduce.NewEngine(), perRow)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, n)
			if len(groups) == 0 {
				t.Fatal("no row has influence: the case checks nothing")
			}
			for _, g := range groups {
				idx, _ := g[0].AsInt()
				count, _ := g[1].AsInt()
				want[idx] = float64(count)
			}

			plan, err := rels.Plan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			q, data, err := sql.CompileDPCount(mapreduce.NewEngine(), plan, tc.protected)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != n {
				t.Fatalf("%d protected records, want %d", len(data), n)
			}
			for i, v := range data {
				if got := q.Map(v)[0]; got != want[i] {
					t.Fatalf("influence of row %d = %v, reference GROUP BY says %v", i, got, want[i])
				}
			}
		})
	}
}

// releaseOn is release on a caller-built engine.
func releaseOn(t *testing.T, eng *mapreduce.Engine, plan sql.Plan, protected string) releaseOutcome {
	t.Helper()
	q, data, err := sql.CompileDPCount(eng, plan, protected)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SampleSize = 200
	cfg.Epsilon = 0.5
	cfg.Seed = 42
	sys, err := core.NewSystem(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(sys, q, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return releaseOutcome{res: res, epsilon: sys.EpsilonSpent()}
}

// TestDPReleaseIdenticalWhenSpilling runs every canned DP plan on an engine
// that spills every materialization and requires the release of the
// in-memory engine, bit for bit. Influence compilation reads the resident
// images and counts per key, so it materializes nothing and must not spill
// at all; the release that follows still spills, which keeps the spill codec
// on every plan's path. A release's records are its influences, so what
// spills is the sample's numbers, not its tuples: at most 16 bytes per
// sampled record, spill-file headers included.
func TestDPReleaseIdenticalWhenSpilling(t *testing.T) {
	rels := NewRelations(influenceDB(t))
	for _, tc := range dpCases {
		t.Run(tc.plan+"/"+tc.protected, func(t *testing.T) {
			plan, err := rels.Plan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			inMemory := releaseOn(t, mapreduce.NewEngine(), plan, tc.protected)

			eng := mapreduce.NewEngine(mapreduce.WithMemoryBudget(0))
			defer eng.Close()
			if _, _, err := sql.CompileDPCount(eng, plan, tc.protected); err != nil {
				t.Fatal(err)
			}
			if spilled := eng.Metrics().SpilledBytes; spilled != 0 {
				t.Fatalf("influence compilation spilled %d bytes", spilled)
			}
			spilling := releaseOn(t, eng, plan, tc.protected)
			spilled := eng.Metrics().SpilledBytes
			if spilled == 0 {
				t.Fatal("compile and release spilled nothing: the run proves nothing about the spill path")
			}
			if bound := int64(16 * spilling.res.SampleSize); spilled > bound {
				t.Fatalf("compile and release spilled %d bytes, more than %d for %d sampled records",
					spilled, bound, spilling.res.SampleSize)
			}
			assertSameRelease(t, inMemory, spilling)
		})
	}
}

// TestDPInfluenceUnderChaos compiles and releases every canned DP plan on
// engines with seeded task faults, shuffle errors, stragglers and lost
// slots, several at once on shared relations. Each task returns its own
// partial tally, so a retried task must not count a tuple twice: releases
// stay bit-identical to the fault-free run. CI runs this under
// -race -count=10, which is also what shows the shared image is only read.
func TestDPInfluenceUnderChaos(t *testing.T) {
	rels := NewRelations(influenceDB(t))
	policy := chaos.RetryPolicy{MaxAttempts: 8, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 100 * time.Microsecond}
	for _, tc := range dpCases {
		plan, err := rels.Plan(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		clean := releaseOn(t, mapreduce.NewEngine(), plan, tc.protected)
		t.Run(tc.plan+"/"+tc.protected, func(t *testing.T) {
			t.Parallel()
			var retries int64
			for seed := uint64(1); seed <= 6; seed++ {
				eng := mapreduce.NewEngine(mapreduce.WithRetryPolicy(policy), mapreduce.WithChaos(chaos.New(chaos.Policy{
					Seed:             seed,
					TaskFaultRate:    0.2,
					StragglerRate:    0.05,
					StragglerDelay:   100 * time.Microsecond,
					ShuffleErrorRate: 0.1,
					SlotLossRate:     0.2,
				})))
				assertSameRelease(t, clean, releaseOn(t, eng, plan, tc.protected))
				retries += eng.Metrics().TaskRetries
			}
			if retries == 0 {
				t.Fatal("no task was retried: the run proves nothing about retry safety")
			}
		})
	}
}

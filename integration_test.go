package upa_test

// Cross-module integration tests: fault tolerance through a whole iDP
// release, the operator-level dpop API composed with the statistics
// substrate into a manual DP release, and the SQL layer running under
// injected faults. These exercise the seams the per-package unit tests
// cannot.

import (
	"math"
	"testing"

	"upa"
	"upa/internal/chaos"
	"upa/internal/core"
	"upa/internal/dpop"
	"upa/internal/mapreduce"
	"upa/internal/queries"
	"upa/internal/sql"
	"upa/internal/stats"
	"upa/internal/tpch"
)

func sumQuery() core.Query[float64] {
	return core.Query[float64]{
		Name:      "sum",
		StateDim:  1,
		OutputDim: 1,
		Map:       func(x float64) core.State { return core.State{x} },
	}
}

func randomData(n int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 10
	}
	return out
}

// TestReleaseSurvivesInjectedFaults verifies that lineage-based task retry
// is transparent to UPA: a release under injected worker faults produces
// bit-identical sensitivity and raw output to a fault-free release with the
// same seed — the fault-tolerance dividend of commutative, associative
// operators the paper leans on (§II-C).
func TestReleaseSurvivesInjectedFaults(t *testing.T) {
	data := randomData(3000, 7)
	run := func(inj *chaos.Injector) *core.Result {
		eng := mapreduce.NewEngine(
			mapreduce.WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 5}),
			mapreduce.WithChaos(inj))
		cfg := core.DefaultConfig()
		cfg.SampleSize = 200
		cfg.Seed = 99
		sys, err := core.NewSystem(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(sys, sumQuery(), data, nil)
		if err != nil {
			t.Fatalf("release under chaos %+v failed: %v", inj.Snapshot(), err)
		}
		return res
	}
	clean := run(nil)
	faulty := run(chaos.New(chaos.Policy{Seed: 3, TaskFaultRate: 0.2}))
	if faulty.EngineDelta.TaskFaults == 0 {
		t.Fatal("no faults were actually injected")
	}
	if clean.RawOutput[0] != faulty.RawOutput[0] {
		t.Errorf("raw outputs diverge under faults: %v vs %v",
			clean.RawOutput[0], faulty.RawOutput[0])
	}
	if clean.Sensitivity[0] != faulty.Sensitivity[0] {
		t.Errorf("sensitivities diverge under faults: %v vs %v",
			clean.Sensitivity[0], faulty.Sensitivity[0])
	}
}

// TestManualDPReleaseViaOperators composes the Table I operators with the
// statistics substrate into a by-hand DP release, and checks the inferred
// sensitivity against the exact ground truth — the workflow of a Spark user
// porting an existing pipeline operator-by-operator.
func TestManualDPReleaseViaOperators(t *testing.T) {
	eng := mapreduce.NewEngine()
	data := randomData(5000, 13)

	d, err := dpop.DPRead(eng, data, 500, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	squared, err := dpop.MapDP(d, func(x float64) float64 { return x * x })
	if err != nil {
		t.Fatal(err)
	}
	res, err := dpop.ReduceDP(squared, func(a, b float64) float64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}

	// Infer a range over the neighbouring outputs and release with noise.
	fit, err := stats.FitNormalMLE(res.Neighbours)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := fit.PercentileRange(0.01, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := stats.NewMechanism(0.1, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	noisy := mech.Perturb(res.Result, hi-lo)
	if math.IsNaN(noisy) {
		t.Fatal("noisy release is NaN")
	}

	// The sampled spread must sit within the exact local sensitivity
	// (max x_i^2 over all records, since removal subtracts one square).
	var exact float64
	for _, x := range data {
		exact = math.Max(exact, x*x)
	}
	spread := res.SpreadFloat64(func(x float64) float64 { return x })
	if spread > exact+1e-9 {
		t.Errorf("sampled spread %v exceeds exact local sensitivity %v", spread, exact)
	}
	if spread <= 0 {
		t.Error("sampled spread is zero on non-degenerate data")
	}
}

// TestSQLUnderFaults runs a join-aggregate plan with injected faults; the
// executor must retry from lineage and return the exact answer.
func TestSQLUnderFaults(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lineitems: 3000, Skew: 0.2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	plan := queries.TPCH4Plan(db)

	cleanEng := mapreduce.NewEngine()
	want, err := sql.ExecuteCount(cleanEng, plan)
	if err != nil {
		t.Fatal(err)
	}

	faultyEng := mapreduce.NewEngine(
		mapreduce.WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 5}),
		mapreduce.WithChaos(chaos.New(chaos.Policy{Seed: 4, TaskFaultRate: 0.2, ShuffleErrorRate: 0.2})))
	got, err := sql.ExecuteCount(faultyEng, plan)
	if err != nil {
		t.Fatalf("plan under faults failed: %v", err)
	}
	if got != want {
		t.Fatalf("plan under faults = %d, clean = %d", got, want)
	}
	if faultyEng.Metrics().TaskFaults == 0 {
		t.Fatal("no faults were actually injected")
	}
}

// TestAnalystSessionLifecycle drives a whole analyst session through the
// public API: budgeted releases, an attack detection, unrelated queries,
// and a history reset.
func TestAnalystSessionLifecycle(t *testing.T) {
	session, err := upa.NewSession(
		upa.WithEpsilon(0.1),
		upa.WithSampleSize(100),
		upa.WithSeed(5),
		upa.WithTotalBudget(0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(2000, 31)
	sum := upa.Sum("total", func(x float64) float64 { return x })
	mean := upa.Mean("mean", func(x float64) float64 { return x })

	if _, err := upa.Release(session, sum, data, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := upa.Release(session, mean, data, nil); err != nil {
		t.Fatal(err)
	}

	// Attack: rerun total on a neighbouring dataset.
	attack, err := upa.Release(session, sum, data[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !attack.AttackSuspected {
		t.Error("neighbouring rerun not flagged")
	}

	// Budget: 3 of 5 releases spent.
	if got := session.SpentBudget(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("SpentBudget = %v, want 0.3", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := upa.Release(session, mean, data, nil); err != nil {
			t.Fatalf("release %d within budget failed: %v", i, err)
		}
	}
	if _, err := upa.Release(session, mean, data, nil); err == nil {
		t.Fatal("over-budget release succeeded")
	}
	if session.HistoryLen() != 5 {
		t.Errorf("history = %d, want 5", session.HistoryLen())
	}
	session.ResetHistory()
	if session.HistoryLen() != 0 {
		t.Error("history survived reset")
	}
}

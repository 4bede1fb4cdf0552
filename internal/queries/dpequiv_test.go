package queries

import (
	"testing"

	"upa/internal/core"
	"upa/internal/mapreduce"
	"upa/internal/sql"
	"upa/internal/tpch"
)

// TestOptimizerDPEquivalence is the DP-safety regression test for the plan
// optimizer and the physical layer: for every canned DP count plan,
// compiling with the interior optimized and columnar (CompileDPCount) and
// compiling the plan as written, row-at-a-time (CompileDPCountRaw) must
// produce byte-identical releases under a fixed seed — same noisy output,
// same sampled neighbouring outputs, same inferred sensitivity, and the same
// ε charged to the system's ledger. Any divergence means a rewrite, a kernel
// or a converter changed a protected row's influence, which would silently
// re-shape the neighbouring distribution the privacy argument is about.
func TestOptimizerDPEquivalence(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lineitems: 2000, Skew: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		plan      sql.Plan
		protected string
	}{
		{"tpch1", TPCH1Plan(db), "lineitem"},
		{"tpch4", TPCH4Plan(db), "orders"},
		{"tpch13", TPCH13Plan(db), "orders"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			optimized := release(t, tc.plan, tc.protected, sql.CompileDPCount)
			raw := release(t, tc.plan, tc.protected, sql.CompileDPCountRaw)
			assertSameRelease(t, optimized, raw)
		})
	}
}

// assertSameRelease requires two seeded releases to agree byte-for-byte on
// every result field and on the ε charged.
func assertSameRelease(t *testing.T, a, b releaseOutcome) {
	t.Helper()
	assertSameVector(t, "Output", a.res.Output, b.res.Output)
	assertSameVector(t, "VanillaOutput", a.res.VanillaOutput, b.res.VanillaOutput)
	assertSameVector(t, "RawOutput", a.res.RawOutput, b.res.RawOutput)
	assertSameVector(t, "Sensitivity", a.res.Sensitivity, b.res.Sensitivity)
	assertSameVector(t, "EmpiricalLocalSensitivity",
		a.res.EmpiricalLocalSensitivity, b.res.EmpiricalLocalSensitivity)
	if len(a.res.RemovalOutputs) != len(b.res.RemovalOutputs) {
		t.Fatalf("neighbour sample count diverged: %d vs %d",
			len(a.res.RemovalOutputs), len(b.res.RemovalOutputs))
	}
	for i := range a.res.RemovalOutputs {
		assertSameVector(t, "RemovalOutputs", a.res.RemovalOutputs[i], b.res.RemovalOutputs[i])
	}
	if a.res.SampleSize != b.res.SampleSize {
		t.Fatalf("sample size diverged: %d vs %d", a.res.SampleSize, b.res.SampleSize)
	}
	if a.epsilon != b.epsilon {
		t.Fatalf("ε ledger diverged: %v vs %v", a.epsilon, b.epsilon)
	}
}

type releaseOutcome struct {
	res     *core.Result
	epsilon float64
}

// release compiles the plan with the given DP compiler and runs one seeded
// release on a fresh engine and system.
func release(t *testing.T, plan sql.Plan, protected string,
	compiler func(*mapreduce.Engine, sql.Plan, string) (core.Query[int64], []int64, error)) releaseOutcome {
	t.Helper()
	eng := mapreduce.NewEngine()
	q, data, err := compiler(eng, plan, protected)
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

func assertSameVector(t *testing.T, field string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s length diverged: optimized=%d raw=%d", field, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d] diverged: optimized=%v raw=%v", field, i, a[i], b[i])
		}
	}
}

package core

import (
	"testing"

	"upa/internal/mapreduce"
	"upa/internal/stats"
)

// BenchmarkReleasePhases measures one full release at the paper's default
// n = 1000 over 100k records — the per-release cost every figure builds on.
func BenchmarkReleasePhases(b *testing.B) {
	rng := stats.NewRNG(1)
	data := make([]float64, 100_000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	q := Query[float64]{
		Name:      "bench-sum",
		StateDim:  1,
		OutputDim: 1,
		Map:       func(x float64) State { return State{x} },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(mapreduce.NewEngine(), DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(sys, q, data, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeighbourLoop isolates the union-preserving reduce: n sampled
// neighbours, O(1) combines each.
func BenchmarkNeighbourLoop(b *testing.B) {
	eng := mapreduce.NewEngine()
	reduce := VectorAdd
	ms := make([]State, 1000)
	for i := range ms {
		ms[i] = State{float64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre, suf := mapreduce.PrefixSuffix(eng, ms, reduce)
		for j := range ms {
			if _, ok := mapreduce.Complement(eng, pre, suf, j, j+1, reduce); !ok {
				b.Fatal("unexpected empty complement")
			}
		}
	}
}

// BenchmarkEnforcerCollides measures the attack check against a long
// history.
func BenchmarkEnforcerCollides(b *testing.B) {
	e := NewRangeEnforcer(1e-9)
	for i := 0; i < 1000; i++ {
		e.Record("q", [2][]float64{{float64(i)}, {float64(i + 1)}})
	}
	probe := [2][]float64{{-1}, {-2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, bad := e.Collides(probe); bad {
			b.Fatal("unexpected collision")
		}
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"upa/internal/chaos"
	"upa/internal/mapreduce"
)

// fusedFoldQueries are the three step forms of Query.fold: the default
// reducer added in place, a MapInto, and a custom reducer folded as
// Reduce(acc, Map(x)). The custom reducer is neither commutative nor
// associative, so a fold that reorders or regroups records shows.
//
// The MapInto adds a stack-held state through addInto, the loop VectorAdd
// runs: the compiler may commute a float addition, and when both operands
// are NaN the result keeps one operand's payload, so only the same code
// is bit-equal on NaN data.
func fusedFoldQueries() []Query[float64] {
	mapper := func(x float64) State { return State{x, 1, x * 0.5} }
	return []Query[float64]{
		{Name: "in-place", StateDim: 3, OutputDim: 3, Map: mapper},
		{Name: "map-into", StateDim: 3, OutputDim: 3, Map: mapper,
			MapInto: func(acc State, x float64) {
				s := [3]float64{x, 1, x * 0.5}
				addInto(acc, s[:])
			}},
		{Name: "custom", StateDim: 3, OutputDim: 3, Map: mapper,
			Reduce: func(a, b State) State {
				return State{a[0]*0.5 + b[0], math.Max(a[1], b[1]) + 1, a[2] - b[2]}
			}},
	}
}

// fusedFoldData draws n floats, mixing −0, NaN, infinities and magnitudes
// far apart, so any change of summation order or of a first state's sign
// changes the bits of the result.
func fusedFoldData(rng *rand.Rand, n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		switch rng.Intn(12) {
		case 0:
			data[i] = math.Copysign(0, -1)
		case 1:
			data[i] = math.NaN()
		case 2:
			data[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
		}
	}
	return data
}

// fusedFoldSkip draws a sorted, distinct subset of [0, n).
func fusedFoldSkip(rng *rand.Rand, n int) []int {
	var skip []int
	density := rng.Float64()
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			skip = append(skip, i)
		}
	}
	return skip
}

func sameStateBits(a, b State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// foldCounters are the engine counters the fused fold must charge exactly
// as the composed Map-then-Reduce job does.
type foldCounters struct {
	TasksRun, TaskAttempts, RecordsMapped, ReduceOps, TaskFaults, TaskRetries int64
}

func foldCountersOf(m mapreduce.MetricsSnapshot) foldCounters {
	return foldCounters{m.TasksRun, m.TaskAttempts, m.RecordsMapped, m.ReduceOps, m.TaskFaults, m.TaskRetries}
}

// TestFusedFoldMatchesComposed is the fused fold's equivalence property:
// over random data, random sorted skip sets and 1–8 partitions,
// ReduceCtx over MapFold with Query.fold returns the bits ReduceCtx(Map(
// FromSliceExcept(…))) returns, and charges the same task, attempt,
// mapped-record and reduce-op counters. Under seeded chaos at rate 0.3 the
// two jobs run the same site, so they fault and retry identically, and
// give up on the same seeds.
func TestFusedFoldMatchesComposed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	recovered := 0
	for trial := 0; trial < 150; trial++ {
		n := rng.Intn(300)
		data := fusedFoldData(rng, n)
		skip := fusedFoldSkip(rng, n)
		parts := rng.Intn(8) + 1
		var policy *chaos.Policy
		if trial%2 == 1 {
			policy = &chaos.Policy{Seed: uint64(trial), TaskFaultRate: 0.3}
		}
		for _, q := range fusedFoldQueries() {
			newEngine := func() *mapreduce.Engine {
				if policy == nil {
					return mapreduce.NewEngine(mapreduce.WithWorkers(2))
				}
				return mapreduce.NewEngine(mapreduce.WithWorkers(2), mapreduce.WithChaos(chaos.New(*policy)))
			}
			composedEng, fusedEng := newEngine(), newEngine()
			composedDS, err := mapreduce.FromSliceExcept(composedEng, data, skip, parts)
			if err != nil {
				t.Fatal(err)
			}
			fusedDS, err := mapreduce.FromSliceExcept(fusedEng, data, skip, parts)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := mapreduce.ReduceCtx(ctx, mapreduce.Map(composedDS, q.Map), q.reducer())
			first, step := q.fold()
			got, gotErr := mapreduce.ReduceCtx(ctx, mapreduce.MapFold(fusedDS, first, step), q.reducer())
			where := func() string {
				return fmt.Sprintf("%s: trial %d n=%d skip=%d parts=%d", q.Name, trial, n, len(skip), parts)
			}
			switch {
			case (wantErr == nil) != (gotErr == nil):
				t.Fatalf("%s: composed err %v, fused err %v", where(), wantErr, gotErr)
			case errors.Is(wantErr, mapreduce.ErrTaskFailed):
				// A task exhausted its attempts: both jobs gave up, and
				// how far the other worker got before the abort is
				// scheduling, so the counters are not compared.
				if !errors.Is(gotErr, mapreduce.ErrTaskFailed) {
					t.Fatalf("%s: composed err %v, fused err %v", where(), wantErr, gotErr)
				}
				continue
			case errors.Is(wantErr, mapreduce.ErrEmptyDataset) != errors.Is(gotErr, mapreduce.ErrEmptyDataset):
				t.Fatalf("%s: composed err %v, fused err %v", where(), wantErr, gotErr)
			}
			if !sameStateBits(got, want) {
				t.Fatalf("%s: fused %v, composed %v", where(), bitsOf(got), bitsOf(want))
			}
			w, g := foldCountersOf(composedEng.Metrics()), foldCountersOf(fusedEng.Metrics())
			if w != g {
				t.Fatalf("%s: fused counters %+v, composed %+v", where(), g, w)
			}
			if g.TaskFaults > 0 {
				recovered++
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no fold recovered from an injected fault; the chaos trials exercise nothing")
	}
	t.Logf("%d folds recovered from injected faults", recovered)
}

// TestFusedFoldKeepsNegativeZero pins why a partition's accumulator starts
// from a copy of its first mapped state: a one-record fold of −0 stays −0,
// which a zero-seeded accumulator would turn into +0.
func TestFusedFoldKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, q := range fusedFoldQueries()[:2] {
		ds, err := mapreduce.FromSliceExcept(mapreduce.NewEngine(), []float64{negZero, 5}, []int{1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		first, step := q.fold()
		got, err := mapreduce.ReduceCtx(context.Background(), mapreduce.MapFold(ds, first, step), q.reducer())
		if err != nil {
			t.Fatal(err)
		}
		if !math.Signbit(got[0]) {
			t.Errorf("%s: fold of −0 = %v, want the sign bit kept", q.Name, got)
		}
	}
}

// TestMapIntoRejectedWithCustomReduce: MapInto folds by VectorAdd, so a
// query may not pair it with its own reducer.
func TestMapIntoRejectedWithCustomReduce(t *testing.T) {
	qs := fusedFoldQueries()
	q := qs[1]
	if err := q.Validate(); err != nil {
		t.Fatalf("MapInto with the default reducer rejected: %v", err)
	}
	q.Reduce = qs[2].Reduce
	if err := q.Validate(); err == nil {
		t.Fatal("MapInto with a custom Reduce accepted")
	}
}

func bitsOf(s State) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[i] = fmt.Sprintf("%v/%#x", v, math.Float64bits(v))
	}
	return out
}

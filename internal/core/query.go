// Package core implements the paper's contribution: Union Preserving
// Aggregation (UPA). Given a MapReduce query f = Finalize(R(M(x))) whose
// reducer R is commutative and associative, UPA
//
//  1. partitions the input for the RANGE ENFORCER and samples n differing
//     records (Partition and Sample, §III),
//  2. maps the sampled and remaining records in parallel (Parallel Map),
//  3. reuses the reduction of the remaining records R(M(S')) — plus
//     prefix/suffix partial reductions over the mapped samples — to compute
//     the query's output on every sampled neighbouring dataset in O(1)
//     combine steps each (Union Preserving Reduce, Algorithm 1),
//  4. fits a normal distribution to the neighbouring outputs by MLE, takes
//     the 1st/99th percentiles as the output range and their difference as
//     the local sensitivity, detects repeated-query attacks, clamps the
//     output into the range, and releases it with Laplace noise
//     (iDP Enforcement, Algorithm 2 RANGE ENFORCER).
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"upa/internal/mapreduce"
	"upa/internal/stats"
)

// State is the intermediate aggregate a Mapper emits per record and a
// Reducer combines. Scalar queries use length-1 states; ML queries carry
// richer aggregates (per-cluster sums, gradient accumulators, counts).
type State = []float64

// VectorAdd is the coordinate-wise sum reducer — the canonical commutative,
// associative MapReduce reducer, used by every aggregation query unless the
// query supplies its own. It never mutates its inputs.
func VectorAdd(a, b State) State {
	out := make(State, len(a))
	copy(out, a)
	addInto(out, b)
	return out
}

// addInto is VectorAdd in place: acc[i] += s[i], bit-equal to
// VectorAdd(acc, s)[i].
func addInto(acc, s State) {
	if len(acc) != len(s) {
		// Reducer signatures cannot return errors; mismatched states are a
		// programming error caught by Query validation before any reduce
		// runs, so this is unreachable in validated queries.
		panic(fmt.Sprintf("core: reducing states of lengths %d and %d", len(acc), len(s)))
	}
	for i := range acc {
		acc[i] += s[i]
	}
}

// Query is a big-data query in UPA's Mapper/Reducer form.
//
// The reducer must be commutative and associative and must not mutate its
// arguments; UPA's reuse of intermediate reductions is sound exactly under
// those properties (§II-C). Finalize converts the total aggregate into the
// released output vector (identity when nil).
type Query[T any] struct {
	// Name labels the query in results and cache keys.
	Name string
	// StateDim is the length of every State emitted by Map.
	StateDim int
	// OutputDim is the length of the finalized output vector.
	OutputDim int
	// Map computes one record's contribution. It must be pure.
	Map func(T) State
	// Reduce combines two states; nil means VectorAdd.
	Reduce mapreduce.Reducer[State]
	// MapInto, when set, folds one record into an accumulator in place: it
	// must leave acc bit-equal to VectorAdd(acc, Map(x)), so a query that
	// sets it releases exactly what its Map alone would. The fold of the
	// remaining records S′ calls it instead of Map to allocate no State per
	// record. Map stays required: samples, additions and the baselines
	// still map one record at a time. MapInto assumes the default reducer,
	// so Validate rejects it together with Reduce.
	MapInto func(acc State, x T)
	// Finalize converts the total state into the output; nil means identity
	// (requires OutputDim == StateDim).
	Finalize func(State) []float64
}

// Validate checks the query's structural invariants.
func (q Query[T]) Validate() error {
	if q.Name == "" {
		return errors.New("core: query needs a name")
	}
	if q.Map == nil {
		return fmt.Errorf("core: query %q has no mapper", q.Name)
	}
	if q.StateDim < 1 {
		return fmt.Errorf("core: query %q has StateDim %d, want >= 1", q.Name, q.StateDim)
	}
	if q.OutputDim < 1 {
		return fmt.Errorf("core: query %q has OutputDim %d, want >= 1", q.Name, q.OutputDim)
	}
	if q.MapInto != nil && q.Reduce != nil {
		return fmt.Errorf("core: query %q sets MapInto with a custom Reduce; MapInto folds by VectorAdd", q.Name)
	}
	if q.Finalize == nil && q.OutputDim != q.StateDim {
		return fmt.Errorf("core: query %q has no Finalize but OutputDim %d != StateDim %d",
			q.Name, q.OutputDim, q.StateDim)
	}
	return nil
}

// reducer returns the effective reducer.
func (q Query[T]) reducer() mapreduce.Reducer[State] {
	if q.Reduce != nil {
		return q.Reduce
	}
	return VectorAdd
}

// fold returns q's map-and-reduce as the first and step functions of
// mapreduce.MapFold. first copies Map(x), so the accumulator is the
// fold's own and keeps Map's bits (a zero-seeded one would turn a −0
// first state into +0). Under the default reducer step adds in place,
// through MapInto when the query has one; a custom reducer is applied as
// acc = Reduce(acc, Map(x)).
func (q Query[T]) fold() (first func(T) State, step func(State, T) State) {
	first = func(x T) State { return slices.Clone(q.Map(x)) }
	switch {
	case q.Reduce != nil:
		step = func(acc State, x T) State { return q.Reduce(acc, q.Map(x)) }
	case q.MapInto != nil:
		step = func(acc State, x T) State { q.MapInto(acc, x); return acc }
	default:
		step = func(acc State, x T) State { addInto(acc, q.Map(x)); return acc }
	}
	return first, step
}

// finalize returns the effective finalizer output for state.
func (q Query[T]) finalize(state State) []float64 {
	if q.Finalize == nil {
		out := make([]float64, len(state))
		copy(out, state)
		return out
	}
	return q.Finalize(state)
}

// vectorsAlmostEqual compares two output vectors with a relative tolerance;
// the RANGE ENFORCER uses it to decide whether two queries produced "the
// same" partition output.
func vectorsAlmostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		scale := math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if diff > tol*math.Max(scale, 1) {
			return false
		}
	}
	return true
}

// cloneVec returns a fresh copy of v.
func cloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// domainSampler draws a record from the query's record domain D; UPA samples
// it to form the "addition" neighbouring datasets (records in D but not
// in x).
type domainSampler[T any] func(*stats.RNG) T

// Package dpop implements the paper's Spark-compatible DP operator API
// (Table I, §V): dpread partitions an input dataset into the sampled
// differing records S and the remaining records S'; dpobject carries the
// map/reduce results of S and S' through mapDP, reduceDP, mapDPKV,
// reduceByKeyDP and joinDP, each of which returns both the query result and
// the output values on the sampled neighbouring datasets.
//
// This is the low-level, operator-at-a-time face of UPA: existing MapReduce
// pipelines swap their operators one-for-one (map → MapDP, reduce →
// ReduceDP, ...) and receive neighbouring outputs alongside every
// aggregation, from which a local sensitivity value is inferred. The
// higher-level core package drives the same machinery end-to-end
// (Algorithm 1 + Algorithm 2) for whole queries, and ReduceDP runs core's
// complement code: both build each neighbour from mapreduce.PrefixSuffix and
// mapreduce.Complement.
package dpop

import (
	"errors"
	"fmt"
	"slices"

	"upa/internal/mapreduce"
	"upa/internal/stats"
)

// DPDataset is the result of dpread: the sampled differing records S and
// the remaining records S', both tracked through subsequent operators. The
// paper's dpobject[T] carries exactly this pair (§V).
type DPDataset[T any] struct {
	eng *mapreduce.Engine
	// samples is S, held in memory (n records); rest is S', a lazy engine
	// dataset so downstream maps parallelize and recompute from lineage.
	samples []T
	rest    *mapreduce.Dataset[T]
}

// DPRead partitions data into n sampled differing records S and the
// remaining records S' (the dpread constructor of Table I). Sampling is
// uniform without replacement and deterministic in rng. n is clamped to
// len(data); data must be non-empty. S' reads data in place, so data must
// not be mutated while the returned DPDataset, or any dataset derived from
// it, is in use.
func DPRead[T any](eng *mapreduce.Engine, data []T, n int, rng *stats.RNG) (*DPDataset[T], error) {
	if eng == nil {
		return nil, fmt.Errorf("dpop: nil engine")
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("dpop: dpread of empty dataset")
	}
	if n < 1 {
		return nil, fmt.Errorf("dpop: sample size must be >= 1, got %d", n)
	}
	if n > len(data) {
		n = len(data)
	}
	idx := rng.SampleIndices(len(data), n)
	samples := make([]T, n)
	for i, j := range idx {
		samples[i] = data[j]
	}
	var rest *mapreduce.Dataset[T]
	if size := len(data) - n; size > 0 {
		slices.Sort(idx) // samples already hold the draw order
		var err error
		rest, err = mapreduce.FromSliceExcept(eng, data, idx, min(eng.Workers(), size))
		if err != nil {
			return nil, err
		}
	}
	return &DPDataset[T]{eng: eng, samples: samples, rest: rest}, nil
}

// Engine returns the engine the dataset is bound to.
func (d *DPDataset[T]) Engine() *mapreduce.Engine { return d.eng }

// SampleSize reports |S|.
func (d *DPDataset[T]) SampleSize() int { return len(d.samples) }

// RestSize reports |S'|.
func (d *DPDataset[T]) RestSize() (int, error) {
	if d.rest == nil {
		return 0, nil
	}
	return d.rest.Count()
}

// MapDP applies f to both S and S' (the mapDP member function of Table I).
// The sampled side is mapped eagerly through the engine; the remaining side
// stays lazy.
func MapDP[T, U any](d *DPDataset[T], f func(T) U) (*DPDataset[U], error) {
	mappedSamples, err := mapSlice(d.eng, d.samples, f)
	if err != nil {
		return nil, err
	}
	out := &DPDataset[U]{eng: d.eng, samples: mappedSamples}
	if d.rest != nil {
		out.rest = mapreduce.Map(d.rest, f)
	}
	return out, nil
}

// FilterDP keeps, on both sides, the records satisfying keep. Filtered-out
// sampled records still occupy their sample slot (their removal is a no-op
// neighbour), matching how Spark UPA evaluates Filter inside the mapper.
func FilterDP[T any](d *DPDataset[T], keep func(T) bool, zero T) (*DPDataset[T], error) {
	mapped, err := mapSlice(d.eng, d.samples, func(t T) T {
		if keep(t) {
			return t
		}
		return zero
	})
	if err != nil {
		return nil, err
	}
	out := &DPDataset[T]{eng: d.eng, samples: mapped}
	if d.rest != nil {
		out.rest = mapreduce.Filter(d.rest, keep)
	}
	return out, nil
}

// ReduceResult is what reduceDP returns (Table I: "the output value of
// sampled neighbouring datasets and query result").
type ReduceResult[T any] struct {
	// Result is the reduction over the whole input, R(M(x)).
	Result T
	// Neighbours[i] is the reduction with sampled record i removed,
	// R(M(x - s_i)).
	Neighbours []T
}

// ReduceDP reduces S and S' with the commutative, associative f and returns
// the query result together with the output values of all sampled
// neighbouring datasets. R(M(S')) is computed once on the engine and reused
// for every neighbour via prefix/suffix partial reductions — the
// union-preserving reduce of §IV-A at operator granularity.
func ReduceDP[T any](d *DPDataset[T], f mapreduce.Reducer[T]) (*ReduceResult[T], error) {
	if len(d.samples) == 0 {
		return nil, fmt.Errorf("dpop: reduceDP with no sampled records")
	}
	var (
		restVal T
		restOK  bool
	)
	if d.rest != nil {
		v, err := mapreduce.Reduce(d.rest, f)
		switch {
		case err == nil:
			restVal, restOK = v, true
		case errors.Is(err, mapreduce.ErrEmptyDataset):
			// no remaining records: neighbours come from samples alone
		default:
			return nil, err
		}
	}

	n := len(d.samples)
	pre, suf := mapreduce.PrefixSuffix(d.eng, d.samples, f)
	res := &ReduceResult[T]{Neighbours: make([]T, 0, n)}
	res.Result, _ = mapreduce.CombineOpt(d.eng, f, restVal, restOK, pre[n-1], true)
	for i := 0; i < n; i++ {
		rest, restPartOK := mapreduce.Complement(d.eng, pre, suf, i, i+1, f)
		neighbour, nOK := mapreduce.CombineOpt(d.eng, f, restVal, restOK, rest, restPartOK)
		if !nOK {
			// x had exactly one record; its removal leaves an empty
			// dataset, which has no reduction value. Skip, as Spark's
			// reduce would.
			continue
		}
		res.Neighbours = append(res.Neighbours, neighbour)
	}
	return res, nil
}

// SpreadFloat64 converts scalar neighbouring outputs into the local
// sensitivity they witness: max |result - neighbour|.
func (r *ReduceResult[T]) SpreadFloat64(value func(T) float64) float64 {
	base := value(r.Result)
	worst := 0.0
	for _, n := range r.Neighbours {
		diff := value(n) - base
		if diff < 0 {
			diff = -diff
		}
		if diff > worst {
			worst = diff
		}
	}
	return worst
}

func mapSlice[T, U any](eng *mapreduce.Engine, in []T, f func(T) U) ([]U, error) {
	if len(in) == 0 {
		return nil, nil
	}
	parts := eng.Workers()
	if parts > len(in) {
		parts = len(in)
	}
	ds, err := mapreduce.FromSlice(eng, in, parts)
	if err != nil {
		return nil, err
	}
	return mapreduce.Map(ds, f).Collect()
}

package mapreduce

import (
	"context"
	"errors"
)

// ErrEmptyDataset is returned by Reduce on a dataset with no records.
var ErrEmptyDataset = errors.New("mapreduce: reduce of empty dataset")

// Reducer is a binary combination function. UPA (and Spark) require reducers
// to be commutative and associative; the engine exploits both by reducing
// partitions independently and combining the partials in arbitrary order.
// The contract is checked for concrete reducers by property tests.
type Reducer[T any] func(T, T) T

// Reduce folds the dataset with the commutative, associative reducer f:
// per-partition sequential reduction in parallel, then a combination of the
// partition partials. Empty partitions are skipped; an entirely empty
// dataset returns ErrEmptyDataset.
func Reduce[T any](d *Dataset[T], f Reducer[T]) (T, error) {
	//upa:allow(ctxpropagation) public convenience wrapper: callers without a context land here
	return ReduceCtx(context.Background(), d, f)
}

// ReduceCtx is Reduce under a context: cancelling ctx stops the scheduler
// from claiming further partition tasks. Each partition is reduced in its
// own task (the paper's ReduceByPar helper in Algorithms 1 and 2), then the
// non-empty partials are combined in partition order.
func ReduceCtx[T any](ctx context.Context, d *Dataset[T], f Reducer[T]) (T, error) {
	partials := make([]T, d.numParts)
	nonEmpty := make([]bool, d.numParts)
	var zero T
	err := d.eng.runTasks(ctx, d.name+":reduce", d.numParts, func(tctx context.Context, p int) error {
		part, err := d.compute(tctx, p)
		if err != nil {
			return err
		}
		if len(part) == 0 {
			return nil
		}
		acc := part[0]
		for _, v := range part[1:] {
			acc = f(acc, v)
		}
		d.eng.metrics.ReduceOps.Add(int64(len(part) - 1))
		partials[p] = acc
		nonEmpty[p] = true
		return nil
	})
	if err != nil {
		return zero, err
	}
	first := true
	var acc T
	for p, ok := range nonEmpty {
		if !ok {
			continue
		}
		if first {
			acc = partials[p]
			first = false
			continue
		}
		acc = f(acc, partials[p])
		d.eng.metrics.ReduceOps.Add(1)
	}
	if first {
		return zero, ErrEmptyDataset
	}
	return acc, nil
}

// ReduceSlice sequentially reduces a plain slice with f, returning ok=false
// on an empty slice. It exists so UPA's union-preserving reduce can fold
// in-memory sample sets with exactly the same reducer semantics as the
// engine.
func ReduceSlice[T any](xs []T, f Reducer[T]) (T, bool) {
	var zero T
	if len(xs) == 0 {
		return zero, false
	}
	acc := xs[0]
	for _, v := range xs[1:] {
		acc = f(acc, v)
	}
	return acc, true
}

// PrefixSuffix returns the partial reductions of xs: pre[i] = f(xs[0..i])
// and suf[i] = f(xs[i..n-1]). Together they make the reduction of xs
// without any element or contiguous block one combine (Complement) — the
// union-preserving reduce's O(1) cost per sampled neighbour (§IV-A). Each
// fold keeps xs's order, and eng is charged the 2(n−1) reduce operations.
func PrefixSuffix[T any](eng *Engine, xs []T, f Reducer[T]) (pre, suf []T) {
	n := len(xs)
	if n == 0 {
		return nil, nil
	}
	pre = make([]T, n)
	suf = make([]T, n)
	pre[0] = xs[0]
	for i := 1; i < n; i++ {
		pre[i] = f(pre[i-1], xs[i])
	}
	suf[n-1] = xs[n-1]
	for i := n - 2; i >= 0; i-- {
		suf[i] = f(xs[i], suf[i+1])
	}
	eng.AccountReduceOps(int64(2 * (n - 1)))
	return pre, suf
}

// Complement reduces the elements of xs outside [lo, hi) from xs's
// PrefixSuffix partials, left part before right, returning ok=false when
// nothing is left. Complement(pre, suf, i, i+1) is the leave-one-out
// reduction without xs[i].
func Complement[T any](eng *Engine, pre, suf []T, lo, hi int, f Reducer[T]) (T, bool) {
	var left, right T
	if lo > 0 {
		left = pre[lo-1]
	}
	if hi < len(suf) {
		right = suf[hi]
	}
	return CombineOpt(eng, f, left, lo > 0, right, hi < len(suf))
}

// CombineOpt reduces two optional values: f(a, b), charged to eng as one
// reduce operation, when both are present; else whichever is present; else
// ok=false.
func CombineOpt[T any](eng *Engine, f Reducer[T], a T, aOK bool, b T, bOK bool) (T, bool) {
	switch {
	case aOK && bOK:
		eng.AccountReduceOps(1)
		return f(a, b), true
	case aOK:
		return a, true
	case bOK:
		return b, true
	default:
		var zero T
		return zero, false
	}
}

package mapreduce

import (
	"context"
	"fmt"
)

// Map applies f to every record. It is a narrow transformation: partition p
// of the child depends only on partition p of the parent, so it is both
// embarrassingly parallel and recomputable from lineage.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return derived[T, U](d, "map", d.numParts, func(ctx context.Context, p int) ([]U, error) {
		in, err := d.compute(ctx, p)
		if err != nil {
			return nil, err
		}
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		d.eng.metrics.RecordsMapped.Add(int64(len(in)))
		return out, nil
	})
}

// MapFold is Map(d, m) with each partition folded to one record, the
// per-partition half of ReduceCtx(ctx, Map(d, m), f) done in the same pass
// as the map: first(x) starts a partition's accumulator from its first
// record, and step(acc, x) folds each later record into it and returns the
// accumulator, which step may update in place because first's value is the
// partition's own. Partition p is empty when d's is, else the one folded
// value; a reduce over the result combines them in partition order.
//
// Neither the mapped partition nor, for a FromSliceExcept source, the
// compacted one is built: a skip view is folded run by run where it lies.
// The child carries Map's lineage name and charges Map's RecordsMapped
// and the fold's ReduceOps, so ReduceCtx(ctx, MapFold(d, first, step), f)
// runs the tasks, chaos decisions and counters of ReduceCtx(ctx, Map(d,
// m), f), and returns its value, whenever first(x) equals m(x) and
// step(acc, x) equals f(acc, m(x)).
func MapFold[T, U any](d *Dataset[T], first func(T) U, step func(U, T) U) *Dataset[U] {
	return derived[T, U](d, "map", d.numParts, func(ctx context.Context, p int) ([]U, error) {
		var acc U
		records := 0
		fold := func(run []T) {
			if len(run) == 0 {
				return
			}
			if records == 0 {
				acc, run = first(run[0]), run[1:]
				records = 1
			}
			for _, x := range run {
				acc = step(acc, x)
			}
			records += len(run)
		}
		if d.runs != nil {
			d.runs(p, fold)
		} else {
			in, err := d.compute(ctx, p)
			if err != nil {
				return nil, err
			}
			fold(in)
		}
		d.eng.metrics.RecordsMapped.Add(int64(records))
		if records == 0 {
			return nil, nil
		}
		d.eng.metrics.ReduceOps.Add(int64(records - 1))
		return []U{acc}, nil
	})
}

// Filter keeps the records for which keep returns true.
func Filter[T any](d *Dataset[T], keep func(T) bool) *Dataset[T] {
	return derived[T, T](d, "filter", d.numParts, func(ctx context.Context, p int) ([]T, error) {
		in, err := d.compute(ctx, p)
		if err != nil {
			return nil, err
		}
		out := make([]T, 0, len(in))
		for _, v := range in {
			if keep(v) {
				out = append(out, v)
			}
		}
		return out, nil
	})
}

// MapPartitions applies f to each whole partition. f must not retain or
// mutate its input slice. Like Map, it charges its input records to the
// engine's RecordsMapped counter — per-partition mapping is still mapping,
// and the SQL layer compiles filters and projections onto it, so leaving it
// unmetered would hide that work from the metrics.
func MapPartitions[T, U any](d *Dataset[T], f func(p int, in []T) ([]U, error)) *Dataset[U] {
	return derived[T, U](d, "mapPartitions", d.numParts, func(ctx context.Context, p int) ([]U, error) {
		in, err := d.compute(ctx, p)
		if err != nil {
			return nil, err
		}
		d.eng.metrics.RecordsMapped.Add(int64(len(in)))
		return f(p, in)
	})
}

// Repartition redistributes records into numParts contiguous partitions.
// The parent is materialized once on first use; a failed materialization
// (e.g. a cancelled context) is retried on the next collection.
func Repartition[T any](d *Dataset[T], numParts int) (*Dataset[T], error) {
	if numParts < 1 {
		return nil, fmt.Errorf("mapreduce: numParts must be >= 1, got %d", numParts)
	}
	var loaded memo[[]T]
	return &Dataset[T]{
		eng:      d.eng,
		numParts: numParts,
		name:     d.name + ".repartition",
		compute: func(ctx context.Context, p int) ([]T, error) {
			data, err := loaded.get(func() ([]T, error) { return d.CollectCtx(ctx) })
			if err != nil {
				return nil, err
			}
			lo, hi := sliceBounds(len(data), numParts, p)
			return data[lo:hi], nil
		},
	}, nil
}

package mapreduce

import (
	"context"
	"fmt"
	"slices"
)

// SortBy globally sorts the dataset by the given less function into
// numParts contiguous partitions. Like Spark's sortBy it is a wide
// transformation: all records move (one shuffle round), then each output
// partition holds a contiguous range of the sorted order.
//
// The sort is stable, so records comparing equal keep their source order —
// which keeps every downstream result deterministic.
//
// The sort is a merge sort over the source partitions: each is
// stable-sorted into a run, the runs live in one partition store (in memory
// within the engine's budget, spilled past it), and every output partition
// is produced by a streaming k-way merge over the runs, ties broken by run
// index. That yields exactly the record sequence a stable sort of the
// concatenated partitions would, wherever the runs live.
//
// Every returned partition is an owned slice: downstream stages that mutate
// or append to their input can never corrupt the shared sorted runs or
// their sibling partitions.
func SortBy[T any](d *Dataset[T], numParts int, less func(a, b T) bool) (*Dataset[T], error) {
	if numParts < 1 {
		return nil, fmt.Errorf("mapreduce: numParts must be >= 1, got %d", numParts)
	}
	var runs memo[*partStore[T]]
	return &Dataset[T]{
		eng:      d.eng,
		numParts: numParts,
		name:     d.name + ".sortBy",
		compute: func(ctx context.Context, p int) ([]T, error) {
			// The runs are materialized once and shared by all output
			// partitions; a failed materialization (e.g. a cancelled context)
			// is retried on the next collection instead of being cached.
			st, err := runs.get(func() (*partStore[T], error) {
				return sortRuns(ctx, d, less)
			})
			if err != nil {
				return nil, err
			}
			return mergeRuns(ctx, st, less, numParts, p)
		},
	}, nil
}

// cmpOf adapts a less function to the three-way comparison slices wants.
func cmpOf[T any](less func(a, b T) bool) func(a, b T) int {
	return func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	}
}

// sortRuns collects the parent, stable-sorting a copy of each source
// partition into a run inside the collecting task, and stores the runs. The
// store's recovery hook re-derives one source partition from lineage and
// sorts it again, so a run whose spill file rots heals like any other
// materialization; the hook runs inline rather than on the worker pool,
// keeping the engine's fault-invariant task accounting. The one shuffle
// round of every record is accounted whether the runs stay in memory or
// spill.
func sortRuns[T any](ctx context.Context, d *Dataset[T], less func(a, b T) bool) (*partStore[T], error) {
	cmp := cmpOf(less)
	sortPart := func(ctx context.Context, p int) ([]T, error) {
		part, err := d.compute(ctx, p)
		if err != nil {
			return nil, err
		}
		run := slices.Clone(part)
		slices.SortStableFunc(run, cmp)
		return run, nil
	}
	runs := make([][]T, d.numParts)
	err := d.eng.runTasks(ctx, d.name+":collect", d.numParts, func(tctx context.Context, p int) (err error) {
		runs[p], err = sortPart(tctx, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	st, err := storeParts(d.eng, d.name+".sortBy", runs, sortPart)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	d.eng.AccountShuffle(total)
	return st, nil
}

// mergeRuns returns output partition p — records [lo, hi) of the global
// sorted order — as an owned slice, streaming a k-way merge of the runs.
// Ties pick the lowest run index, and records within a run keep their
// order, so the merged sequence equals a stable sort of the concatenated
// source partitions. Memory stays bounded by one decode batch per spilled
// run regardless of dataset size.
func mergeRuns[T any](ctx context.Context, st *partStore[T], less func(a, b T) bool, numParts, p int) ([]T, error) {
	k := len(st.counts)
	total := 0
	for _, n := range st.counts {
		total += n
	}
	lo, hi := sliceBounds(total, numParts, p)
	cursors := make([]*partCursor[T], k)
	heads := make([]T, k)
	live := make([]bool, k)
	for i := range cursors {
		cursors[i] = st.cursor(i)
		defer cursors[i].close()
		var err error
		if heads[i], live[i], err = cursors[i].next(ctx); err != nil {
			return nil, err
		}
	}
	out := make([]T, 0, hi-lo)
	for emitted := 0; emitted < hi; emitted++ {
		best := -1
		for i := range heads {
			if live[i] && (best < 0 || less(heads[i], heads[best])) {
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("mapreduce: sort runs exhausted at record %d of %d", emitted, total)
		}
		if emitted >= lo {
			out = append(out, heads[best])
		}
		var err error
		if heads[best], live[best], err = cursors[best].next(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

package mapreduce

import (
	"context"
	"fmt"
	"sort"
)

// Dataset is a partitioned, lazily evaluated, immutable collection of T —
// the analogue of a Spark RDD. Narrow transformations (Map, Filter, ...)
// chain compute closures without materializing; wide transformations
// (ReduceByKey, Join) shuffle; actions (Collect, Reduce, Count) execute the
// lineage on the engine's worker pool.
//
// Datasets are safe for concurrent use by multiple goroutines.
type Dataset[T any] struct {
	eng      *Engine
	numParts int
	name     string

	// runs, when non-nil, visits partition p as in-place runs of a
	// caller's slice (FromSliceExcept): MapFold folds them without
	// building the partition.
	runs func(p int, visit func([]T))

	// compute produces partition p from lineage under the action's context.
	// It must be pure: the scheduler may invoke it again if a task attempt
	// fails, and cancelling ctx must only abort the computation, never leave
	// partial state behind.
	compute func(ctx context.Context, p int) ([]T, error)
}

// FromSlice creates a dataset from data split into numParts contiguous
// partitions. It returns an error if numParts < 1. The input slice is copied
// so later caller mutations cannot corrupt lineage recomputation. Source
// partitions count against the engine's memory budget: past it they spill
// to temp files at construction and every partition read streams its file
// back instead of holding the whole dataset in RAM.
func FromSlice[T any](eng *Engine, data []T, numParts int) (*Dataset[T], error) {
	if numParts < 1 {
		return nil, fmt.Errorf("mapreduce: numParts must be >= 1, got %d", numParts)
	}
	owned := make([]T, len(data))
	copy(owned, data)
	parts := make([][]T, numParts)
	for p := 0; p < numParts; p++ {
		lo, hi := sliceBounds(len(owned), numParts, p)
		parts[p] = owned[lo:hi]
	}
	return fromStore(eng, parts)
}

// FromSliceExcept creates a dataset over data minus the positions in skip,
// which must be sorted ascending, distinct and within [0, len(data)).
// Partition p holds exactly the records FromSlice would put in partition p
// of the compacted slice, in the same order, and the dataset carries the
// same "source" lineage name. Unlike FromSlice it neither copies nor spills,
// and the view is not admitted to the engine's memory budget because the
// caller's slice is already resident. A partition is the in-place runs of
// data between skip positions: one run is data's own subslice,
// capacity-clipped so an append cannot reach past it, and only a partition
// a skip cuts through is concatenated into a fresh slice. MapFold folds
// the runs where they lie and never builds that slice. The caller
// must not mutate data or skip while the dataset is in use, and every
// operator treats partitions as read-only.
func FromSliceExcept[T any](eng *Engine, data []T, skip []int, numParts int) (*Dataset[T], error) {
	if numParts < 1 {
		return nil, fmt.Errorf("mapreduce: numParts must be >= 1, got %d", numParts)
	}
	for k, i := range skip {
		if i < 0 || i >= len(data) || (k > 0 && i <= skip[k-1]) {
			return nil, fmt.Errorf("mapreduce: skip positions must be sorted, distinct and in [0, %d); position %d is %d", len(data), k, i)
		}
	}
	size := len(data) - len(skip)
	runs := func(p int, visit func([]T)) {
		lo, hi := sliceBounds(size, numParts, p)
		// Compacted position c sits at data index c+k, where k counts the
		// skipped positions before it: the first k with skip[k]-k > c,
		// found by binary search since skip[k]-k is non-decreasing.
		k := sort.Search(len(skip), func(k int) bool { return skip[k]-k > lo })
		for i, left := lo+k, hi-lo; left > 0; k++ {
			end := len(data)
			if k < len(skip) {
				end = skip[k]
			}
			end = min(end, i+left)
			if end > i {
				visit(data[i:end:end])
				left -= end - i
			}
			i = end + 1
		}
	}
	return &Dataset[T]{
		eng:      eng,
		numParts: numParts,
		name:     "source",
		runs:     runs,
		compute: func(_ context.Context, p int) ([]T, error) {
			// Every run is capacity-clipped, so appending a second run to
			// the first copies both into a fresh slice.
			var out []T
			runs(p, func(run []T) {
				if out == nil {
					out = run
					return
				}
				out = append(out, run...)
			})
			return out, nil
		},
	}, nil
}

// FromPartitions creates a dataset whose partitions are exactly parts. The
// outer and inner slices are copied. Like FromSlice, partitions past the
// engine's memory budget spill to temp files.
func FromPartitions[T any](eng *Engine, parts [][]T) (*Dataset[T], error) {
	if len(parts) < 1 {
		return nil, fmt.Errorf("mapreduce: need at least one partition")
	}
	owned := make([][]T, len(parts))
	for i, p := range parts {
		owned[i] = make([]T, len(p))
		copy(owned[i], p)
	}
	return fromStore(eng, owned)
}

// fromStore builds a source dataset over a budget-admitted partition store.
// Source partitions are the root of lineage — there is nothing upstream to
// recompute them from — so the store gets no recompute hook; a corrupt
// source spill is handled by the store's read retries alone.
func fromStore[T any](eng *Engine, parts [][]T) (*Dataset[T], error) {
	store, err := storeParts(eng, "source", parts, nil)
	if err != nil {
		return nil, err
	}
	return &Dataset[T]{
		eng:      eng,
		numParts: len(parts),
		name:     "source",
		compute:  func(ctx context.Context, p int) ([]T, error) { return store.get(ctx, p) },
	}, nil
}

// sliceBounds returns the [lo, hi) range of partition p when n elements are
// split into parts contiguous partitions as evenly as possible.
func sliceBounds(n, parts, p int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = p*base + min(p, rem)
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

// Engine returns the engine the dataset is bound to.
func (d *Dataset[T]) Engine() *Engine { return d.eng }

// NumPartitions reports the partition count.
func (d *Dataset[T]) NumPartitions() int { return d.numParts }

// Name returns the dataset's lineage label (for debugging and cache keys).
func (d *Dataset[T]) Name() string { return d.name }

// CollectPartitionsCtx materializes the dataset and returns its
// partitions. The returned outer slice is fresh; inner slices must be
// treated as read-only. Cancelling ctx stops the scheduler from claiming
// further partition tasks, and the context reaches every lineage stage —
// including shuffles — so a cancelled job aborts mid-shuffle instead of
// running to completion.
func (d *Dataset[T]) CollectPartitionsCtx(ctx context.Context) ([][]T, error) {
	parts := make([][]T, d.numParts)
	err := d.eng.runTasks(ctx, d.name+":collect", d.numParts, func(tctx context.Context, p int) error {
		part, err := d.compute(tctx, p)
		if err != nil {
			return err
		}
		parts[p] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// Collect materializes the dataset and returns all records in partition
// order.
func (d *Dataset[T]) Collect() ([]T, error) {
	//upa:allow(ctxpropagation) public convenience wrapper: callers without a context land here
	return d.CollectCtx(context.Background())
}

// CollectCtx is Collect under a context.
func (d *Dataset[T]) CollectCtx(ctx context.Context) ([]T, error) {
	parts, err := d.CollectPartitionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Count returns the number of records.
func (d *Dataset[T]) Count() (int, error) {
	//upa:allow(ctxpropagation) public convenience wrapper: callers without a context land here
	return d.CountCtx(context.Background())
}

// CountCtx is Count under a context.
func (d *Dataset[T]) CountCtx(ctx context.Context) (int, error) {
	counts := make([]int, d.numParts)
	err := d.eng.runTasks(ctx, d.name+":count", d.numParts, func(tctx context.Context, p int) error {
		part, err := d.compute(tctx, p)
		if err != nil {
			return err
		}
		counts[p] = len(part)
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// derived builds a child dataset with the same engine and partition count.
func derived[T, U any](parent *Dataset[T], name string, numParts int, compute func(ctx context.Context, p int) ([]U, error)) *Dataset[U] {
	return &Dataset[U]{
		eng:      parent.eng,
		numParts: numParts,
		name:     parent.name + "." + name,
		compute:  compute,
	}
}

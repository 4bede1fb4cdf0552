package mapreduce

import (
	"context"
	"fmt"

	"upa/internal/chaos"
)

// shuffle materializes a pair dataset and redistributes its records into
// numParts buckets by key hash. Bucket-building is parallelized over the
// engine's worker pool: each source partition is bucketed independently,
// then the per-destination slices are merged in source-partition order, so
// the final bucket contents are byte-identical to a single-threaded pass
// (source partition order, then record order) and all downstream results
// stay reproducible. Each call accounts for one shuffle round and
// len(records) shuffled records — the unit the paper's overhead analysis is
// phrased in (joinDP "triggers shuffling twice", §V-C). Cancelling ctx
// aborts both the parent collection and the bucketing tasks.
//
// The merged buckets land in a partStore: in memory while the engine's
// budget allows, otherwise one spill file per destination bucket, each
// written in source-partition order so its decoded contents are
// byte-identical to the in-memory bucket. Consumers read buckets through
// the store, oblivious to where they live.
func shuffle[K comparable, V any](ctx context.Context, d *Dataset[Pair[K, V]], numParts int) (*partStore[Pair[K, V]], error) {
	// Guard the shuffle boundary itself: Repartition and SortBy validate
	// their own numParts, but shuffle's bucket index is a modulo — a zero or
	// negative count must surface as an error here, never as a runtime
	// panic in a worker.
	if numParts < 1 {
		return nil, fmt.Errorf("mapreduce: %s: shuffle into %d partitions, need >= 1", d.name, numParts)
	}
	parts, err := d.CollectPartitionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	// Per-source-partition bucketing: local[p][b] holds partition p's records
	// destined for bucket b, in record order. Tasks are pure per index, so
	// lineage retry under fault injection is safe.
	local := make([][][]Pair[K, V], len(parts))
	err = d.eng.runTasks(ctx, d.name+":shuffle-bucket", len(parts), func(_ context.Context, p int) error {
		buckets := make([][]Pair[K, V], numParts)
		for _, rec := range parts[p] {
			b := int(hashOf(rec.Key) % uint64(numParts))
			buckets[b] = append(buckets[b], rec)
		}
		local[p] = buckets
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Deterministic per-destination merge, also on the worker pool: bucket b
	// is the concatenation of every partition's local[p][b] in source order.
	buckets := make([][]Pair[K, V], numParts)
	err = d.eng.runTasks(ctx, d.name+":shuffle-merge", numParts, func(_ context.Context, b int) error {
		size := 0
		for p := range local {
			size += len(local[p][b])
		}
		merged := make([]Pair[K, V], 0, size)
		for p := range local {
			merged = append(merged, local[p][b]...)
		}
		buckets[b] = merged
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range buckets {
		total += len(b)
	}
	d.eng.metrics.ShuffleRounds.Add(1)
	d.eng.metrics.RecordsShuffled.Add(int64(total))
	// The store's recovery hook rebuilds one destination bucket from
	// lineage: iterate the parent's partitions in source order and keep the
	// records hashing to that bucket — the same order the merge above
	// produced. It runs inline rather than on the worker pool, so a
	// recovery changes no task accounting and the engine's fault-invariant
	// metrics (TasksRun) hold even while spill files are being healed.
	recompute := func(rctx context.Context, b int) ([]Pair[K, V], error) {
		var merged []Pair[K, V]
		for p := 0; p < d.numParts; p++ {
			part, err := d.compute(rctx, p)
			if err != nil {
				return nil, err
			}
			for _, rec := range part {
				if int(hashOf(rec.Key)%uint64(numParts)) == b {
					merged = append(merged, rec)
				}
			}
		}
		return merged, nil
	}
	return storeParts(d.eng, d.name+":shuffle", buckets, recompute)
}

// shuffled lazily wraps a shuffle of d so several child partitions share it.
// The first successful shuffle is memoized; failures (e.g. a cancelled
// context) are retried on the next collection instead of being cached.
type shuffled[K comparable, V any] struct {
	memo memo[*partStore[Pair[K, V]]]
}

// get returns the memoized bucket store, materializing it on first use, and
// bucket reads destination bucket b out of it.
func (s *shuffled[K, V]) get(ctx context.Context, d *Dataset[Pair[K, V]], numParts int) (*partStore[Pair[K, V]], error) {
	return s.memo.get(func() (*partStore[Pair[K, V]], error) { return shuffleWithRetry(ctx, d, numParts) })
}

func (s *shuffled[K, V]) bucket(ctx context.Context, d *Dataset[Pair[K, V]], numParts, b int) ([]Pair[K, V], error) {
	store, err := s.get(ctx, d, numParts)
	if err != nil {
		return nil, err
	}
	return store.get(ctx, b)
}

// shuffleWithRetry materializes a shuffle under the engine's RetryPolicy.
// The chaos injector may fail a materialization attempt transiently before
// any data moves (a lost fetch from a remote shuffle service); such attempts
// are retried with backoff, drawing on the per-materialization retry budget.
// A shuffle whose own tasks exhausted their attempts (ErrTaskFailed) is
// terminal — its tasks already ran, and re-running them would break the
// engine's fault-invariant metrics accounting.
func shuffleWithRetry[K comparable, V any](ctx context.Context, d *Dataset[Pair[K, V]], numParts int) (*partStore[Pair[K, V]], error) {
	eng := d.eng
	site := d.name + ":shuffle"
	maxAttempts := eng.policy.Attempts()
	budget := eng.policy.NewBudget()
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 1 {
			if !budget.Take() {
				return nil, fmt.Errorf("%w: %s: retry budget exhausted after %d attempts: %w",
					ErrTaskFailed, site, attempt-1, lastErr)
			}
			eng.metrics.ShuffleRetries.Add(1)
			if wait := eng.policy.Backoff(site, 0, attempt-1); wait > 0 {
				eng.metrics.BackoffNanos.Add(int64(wait))
				if !chaos.Sleep(ctx, wait) {
					return nil, ctx.Err()
				}
			}
		}
		if eng.inj.ShuffleError(site, attempt) {
			lastErr = fmt.Errorf("%w: %s: shuffle attempt %d", chaos.ErrInjected, site, attempt)
			continue
		}
		out, err := shuffle(ctx, d, numParts)
		if err == nil {
			return out, nil
		}
		if chaos.Transient(err, ctx) {
			lastErr = err
			continue
		}
		return nil, err
	}
	return nil, fmt.Errorf("%w: %s: gave up after %d attempts: %w",
		ErrTaskFailed, site, maxAttempts, lastErr)
}

// joinContexts combines a construction-time bound context with the
// per-action call context: the returned context is cancelled when either is.
// A nil or Background bound context adds nothing. The returned stop function
// releases the watcher and must be called when the computation finishes.
func joinContexts(bound, call context.Context) (context.Context, context.CancelFunc) {
	//upa:allow(ctxpropagation) sentinel comparison against the Background singleton, not a new root context
	if bound == nil || bound == context.Background() {
		return call, func() {}
	}
	merged, cancel := context.WithCancel(call)
	stop := context.AfterFunc(bound, cancel)
	return merged, func() { stop(); cancel() }
}

// mapSideCombine folds each source partition's records into one combiner per
// distinct key, in first-seen order — the narrow half of combineByKey. Every
// mergeValue application counts as one reduce op, so the total operation
// accounting matches a combine-less reduction exactly.
func mapSideCombine[K comparable, V, C any](d *Dataset[Pair[K, V]], create func(V) C, mergeValue func(C, V) C) *Dataset[Pair[K, C]] {
	return derived[Pair[K, V], Pair[K, C]](d, "combine", d.numParts, func(ctx context.Context, p int) ([]Pair[K, C], error) {
		in, err := d.compute(ctx, p)
		if err != nil {
			return nil, err
		}
		acc := make(map[K]C)
		order := make([]K, 0)
		var combines int64
		for _, rec := range in {
			if cur, ok := acc[rec.Key]; ok {
				acc[rec.Key] = mergeValue(cur, rec.Value)
				combines++
			} else {
				acc[rec.Key] = create(rec.Value)
				order = append(order, rec.Key)
			}
		}
		out := make([]Pair[K, C], len(order))
		for i, k := range order {
			out[i] = Pair[K, C]{Key: k, Value: acc[k]}
		}
		d.eng.metrics.ReduceOps.Add(combines)
		d.eng.metrics.RecordsPreCombine.Add(int64(len(in)))
		d.eng.metrics.RecordsPostCombine.Add(int64(len(out)))
		d.eng.metrics.RecordsCombinedMapSide.Add(int64(len(in) - len(out)))
		return out, nil
	})
}

// combineByKey is the engine's map-side-combining wide transformation, the
// analogue of Spark's combineByKey. Per source partition — before any data
// moves — every record's value is folded into a per-key combiner C (create
// for the first value of a key, mergeValue for the rest); only the combined
// pairs are shuffled, and each destination bucket merges the per-partition
// combiners with mergeCombiners. mergeCombiners must be commutative and
// associative — exactly the contract UPA and Spark already demand of
// reducers (§II) — which is what makes the pre-shuffle fold output-invariant:
// fold(p1 ++ p2) == mergeCombiners(fold(p1), fold(p2)).
//
// On skewed keys this shrinks RecordsShuffled from O(records) to
// O(partitions × distinct keys); the RecordsPreCombine / RecordsPostCombine /
// RecordsCombinedMapSide counters meter the reduction. Output keys appear in
// deterministic first-seen order within each partition, identical to the
// order a combine-less shuffle would produce. Cancelling bound aborts the
// shuffle even when the dataset is later collected without a context.
func combineByKey[K comparable, V, C any](bound context.Context, d *Dataset[Pair[K, V]], create func(V) C, mergeValue func(C, V) C, mergeCombiners Reducer[C]) *Dataset[Pair[K, C]] {
	combined := mapSideCombine(d, create, mergeValue)
	sh := &shuffled[K, C]{}
	numParts := d.numParts
	return derived[Pair[K, C], Pair[K, C]](combined, "reduceByKey", numParts, func(ctx context.Context, p int) ([]Pair[K, C], error) {
		sctx, stop := joinContexts(bound, ctx)
		defer stop()
		bucket, err := sh.bucket(sctx, combined, numParts, p)
		if err != nil {
			return nil, err
		}
		acc := make(map[K]C)
		order := make([]K, 0)
		for _, rec := range bucket {
			if cur, ok := acc[rec.Key]; ok {
				acc[rec.Key] = mergeCombiners(cur, rec.Value)
				d.eng.metrics.ReduceOps.Add(1)
			} else {
				acc[rec.Key] = rec.Value
				order = append(order, rec.Key)
			}
		}
		out := make([]Pair[K, C], len(order))
		for i, k := range order {
			out[i] = Pair[K, C]{Key: k, Value: acc[k]}
		}
		return out, nil
	})
}

// ReduceByKey combines all values of each key with the commutative,
// associative reducer f. It is a wide transformation: one shuffle round,
// with a map-side combine ahead of it — each source partition pre-reduces
// its records per key, so only one record per (partition, key) is shuffled.
// Output keys appear in deterministic first-seen order within each
// partition, and because f is associative the combined values are exactly
// the values a combine-less fold would have produced.
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], f Reducer[V]) *Dataset[Pair[K, V]] {
	return combineByKey(nil, d, func(v V) V { return v }, f, f)
}

// ReduceByKeyCtx is ReduceByKey with a bound context: cancelling ctx aborts
// the shuffle even when the dataset is later collected without one.
func ReduceByKeyCtx[K comparable, V any](ctx context.Context, d *Dataset[Pair[K, V]], f Reducer[V]) *Dataset[Pair[K, V]] {
	return combineByKey(ctx, d, func(v V) V { return v }, f, f)
}

// GroupByKey gathers all values of each key into a slice, in deterministic
// order. One shuffle round. Unlike ReduceByKey there is no map-side combine:
// grouping eliminates nothing, so every record ships to its bucket (the same
// reason Spark's groupByKey never combines).
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]]) *Dataset[Pair[K, []V]] {
	sh := &shuffled[K, V]{}
	numParts := d.numParts
	return derived[Pair[K, V], Pair[K, []V]](d, "groupByKey", numParts, func(ctx context.Context, p int) ([]Pair[K, []V], error) {
		bucket, err := sh.bucket(ctx, d, numParts, p)
		if err != nil {
			return nil, err
		}
		groups := make(map[K][]V)
		order := make([]K, 0)
		for _, rec := range bucket {
			if _, ok := groups[rec.Key]; !ok {
				order = append(order, rec.Key)
			}
			groups[rec.Key] = append(groups[rec.Key], rec.Value)
		}
		out := make([]Pair[K, []V], len(order))
		for i, k := range order {
			out[i] = Pair[K, []V]{Key: k, Value: groups[k]}
		}
		return out, nil
	})
}

// Joined is the value type produced by Join: one left and one right value
// sharing a key.
type Joined[V, W any] struct {
	Left  V
	Right W
}

// Join computes the inner equi-join of a and b: every (v, w) combination
// with equal keys. Both sides shuffle (two shuffle rounds total — exactly
// the cost vanilla Spark pays once per Join and UPA pays twice in joinDP).
// The output order is deterministic.
//
// Repartition semantics: both sides are rebucketed into
// max(a.NumPartitions(), b.NumPartitions()) buckets, so joining a wide
// dataset against a narrow one never squeezes the wide side through the
// narrow side's partition count. The output has that many partitions.
func Join[K comparable, V, W any](a *Dataset[Pair[K, V]], b *Dataset[Pair[K, W]]) (*Dataset[Pair[K, Joined[V, W]]], error) {
	return joinCtx(nil, a, b)
}

// JoinCtx is Join with a bound context: cancelling ctx aborts the shuffles
// even when the dataset is later collected without one.
func JoinCtx[K comparable, V, W any](ctx context.Context, a *Dataset[Pair[K, V]], b *Dataset[Pair[K, W]]) (*Dataset[Pair[K, Joined[V, W]]], error) {
	return joinCtx(ctx, a, b)
}

func joinCtx[K comparable, V, W any](bound context.Context, a *Dataset[Pair[K, V]], b *Dataset[Pair[K, W]]) (*Dataset[Pair[K, Joined[V, W]]], error) {
	if a.eng != b.eng {
		return nil, fmt.Errorf("mapreduce: join across engines")
	}
	shA := &shuffled[K, V]{}
	shB := &shuffled[K, W]{}
	numParts := max(a.numParts, b.numParts)
	child := derived[Pair[K, V], Pair[K, Joined[V, W]]](a, "join", numParts, func(ctx context.Context, p int) ([]Pair[K, Joined[V, W]], error) {
		sctx, stop := joinContexts(bound, ctx)
		defer stop()
		left, err := shA.bucket(sctx, a, numParts, p)
		if err != nil {
			return nil, err
		}
		right, err := shB.bucket(sctx, b, numParts, p)
		if err != nil {
			return nil, err
		}
		// Build side: hash the right bucket; probe side: stream the left
		// bucket in order for deterministic output.
		build := make(map[K][]W)
		for _, rec := range right {
			build[rec.Key] = append(build[rec.Key], rec.Value)
		}
		var out []Pair[K, Joined[V, W]]
		for _, rec := range left {
			for _, w := range build[rec.Key] {
				out = append(out, Pair[K, Joined[V, W]]{
					Key:   rec.Key,
					Value: Joined[V, W]{Left: rec.Value, Right: w},
				})
			}
		}
		return out, nil
	})
	return child, nil
}

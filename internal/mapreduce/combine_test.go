package mapreduce

import (
	"context"
	"errors"
	"testing"

	"upa/internal/chaos"
)

// TestCombineByKeyAverage exercises the three-function combiner contract with
// a combiner type distinct from the value type: a running (sum, count) pair
// folded into per-key means.
func TestCombineByKeyAverage(t *testing.T) {
	type sumCount struct {
		sum, n int
	}
	eng := NewEngine(WithWorkers(4))
	pairs := []Pair[string, int]{
		{"a", 2}, {"b", 10}, {"a", 4}, {"c", 7},
		{"b", 20}, {"a", 6}, {"b", 30}, {"c", 9},
	}
	ds, err := FromSlice(eng, pairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	combined := combineByKey(nil, ds,
		func(v int) sumCount { return sumCount{sum: v, n: 1} },
		func(c sumCount, v int) sumCount { return sumCount{sum: c.sum + v, n: c.n + 1} },
		func(a, b sumCount) sumCount { return sumCount{sum: a.sum + b.sum, n: a.n + b.n} },
	)
	out, err := combined.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]sumCount{
		"a": {sum: 12, n: 3},
		"b": {sum: 60, n: 3},
		"c": {sum: 16, n: 2},
	}
	if len(out) != len(want) {
		t.Fatalf("got %d keys, want %d", len(out), len(want))
	}
	for _, p := range out {
		if p.Value != want[p.Key] {
			t.Errorf("key %q = %+v, want %+v", p.Key, p.Value, want[p.Key])
		}
	}
}

// TestMapSideCombineShrinksShuffle pins the combine counters exactly: 100
// records over 5 keys in 4 partitions must shuffle one record per
// (partition, key) — 20 — and the reduce-op total must equal the N-K a
// combine-less fold performs, so the combine changes where work happens but
// not how much.
func TestMapSideCombineShrinksShuffle(t *testing.T) {
	const (
		records  = 100
		keys     = 5
		numParts = 4
	)
	eng := NewEngine(WithWorkers(4))
	pairs := make([]Pair[int, int], records)
	for i := range pairs {
		pairs[i] = Pair[int, int]{Key: i % keys, Value: 1}
	}
	ds, err := FromSlice(eng, pairs, numParts)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Metrics()
	out, err := ReduceByKey(ds, func(a, b int) int { return a + b }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != keys {
		t.Fatalf("got %d keys, want %d", len(out), keys)
	}
	for _, p := range out {
		if p.Value != records/keys {
			t.Errorf("key %d = %d, want %d", p.Key, p.Value, records/keys)
		}
	}

	delta := eng.Metrics().Sub(before)
	// Each contiguous partition of 25 records holds all 5 keys, so the
	// combine emits 4x5 = 20 records.
	const post = numParts * keys
	if delta.RecordsPreCombine != records {
		t.Errorf("RecordsPreCombine = %d, want %d", delta.RecordsPreCombine, records)
	}
	if delta.RecordsPostCombine != post {
		t.Errorf("RecordsPostCombine = %d, want %d", delta.RecordsPostCombine, post)
	}
	if delta.RecordsCombinedMapSide != records-post {
		t.Errorf("RecordsCombinedMapSide = %d, want %d", delta.RecordsCombinedMapSide, records-post)
	}
	if delta.RecordsShuffled != post {
		t.Errorf("RecordsShuffled = %d, want %d (only combined records cross the wire)", delta.RecordsShuffled, post)
	}
	if delta.RecordsShuffled >= records {
		t.Errorf("combine did not shrink the shuffle: %d >= %d", delta.RecordsShuffled, records)
	}
	if delta.ShuffleRounds != 1 {
		t.Errorf("ShuffleRounds = %d, want 1", delta.ShuffleRounds)
	}
	// Map side folds 100-20 values, reduce side merges 4 combiners per key:
	// (100-20) + 5*(4-1) = 95 = N - K, the combine-less total.
	if want := int64(records - keys); delta.ReduceOps != want {
		t.Errorf("ReduceOps = %d, want %d", delta.ReduceOps, want)
	}
}

// TestCombineByKeyMatchesReduceByKeyOrder checks the combine path and the
// reducer path agree record for record, including output order, across
// partition counts — the output-invariance the commutative/associative
// contract buys.
func TestCombineByKeyMatchesReduceByKeyOrder(t *testing.T) {
	base := make([]Pair[int, int], 200)
	for i := range base {
		base[i] = Pair[int, int]{Key: (i * 7) % 13, Value: i}
	}
	sum := func(a, b int) int { return a + b }
	for _, parts := range []int{1, 3, 8} {
		eng := NewEngine(WithWorkers(4))
		ds, err := FromSlice(eng, base, parts)
		if err != nil {
			t.Fatal(err)
		}
		reduced, err := ReduceByKey(ds, sum).Collect()
		if err != nil {
			t.Fatal(err)
		}
		combined, err := combineByKey(nil, ds,
			func(v int) int { return v }, sum, sum).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(reduced) != len(combined) {
			t.Fatalf("parts=%d: %d vs %d records", parts, len(reduced), len(combined))
		}
		for i := range reduced {
			if reduced[i] != combined[i] {
				t.Errorf("parts=%d: record %d: ReduceByKey %+v, combineByKey %+v",
					parts, i, reduced[i], combined[i])
			}
		}
	}
}

// TestReduceByKeyCtxBoundCancellation checks the bound-context variants: a
// cancelled construction-time context aborts the shuffle even through a plain
// Collect, and a live one changes nothing.
func TestReduceByKeyCtxBoundCancellation(t *testing.T) {
	eng := NewEngine(WithWorkers(2))
	pairs := make([]Pair[int, int], 50)
	for i := range pairs {
		pairs[i] = Pair[int, int]{Key: i % 5, Value: 1}
	}
	ds, err := FromSlice(eng, pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReduceByKeyCtx(cancelled, ds, func(a, b int) int { return a + b }).Collect(); !errors.Is(err, context.Canceled) {
		t.Errorf("ReduceByKeyCtx(cancelled).Collect = %v, want context.Canceled", err)
	}
	joined, err := JoinCtx(cancelled, ds, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := joined.Collect(); !errors.Is(err, context.Canceled) {
		t.Errorf("JoinCtx(cancelled).Collect = %v, want context.Canceled", err)
	}

	live := ReduceByKeyCtx(context.Background(), ds, func(a, b int) int { return a + b })
	out, err := live.Collect()
	if err != nil || len(out) != 5 {
		t.Fatalf("live bound context: %d records, %v; want 5, nil", len(out), err)
	}
}

// TestShuffleRetriesAfterCancellation is the regression test for the
// poisoned-shuffle bug: a shuffle that failed under a cancelled context must
// not memoize the failure, so collecting the same dataset again with a live
// context succeeds.
func TestShuffleRetriesAfterCancellation(t *testing.T) {
	eng := NewEngine(WithWorkers(2))
	pairs := make([]Pair[int, int], 60)
	for i := range pairs {
		pairs[i] = Pair[int, int]{Key: i % 6, Value: 1}
	}
	ds, err := FromSlice(eng, pairs, 4)
	if err != nil {
		t.Fatal(err)
	}
	rbk := ReduceByKey(ds, func(a, b int) int { return a + b })

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rbk.CollectCtx(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("CollectCtx(cancelled) = %v, want context.Canceled", err)
	}

	// The same dataset, re-collected without cancellation, must recover.
	out, err := rbk.Collect()
	if err != nil {
		t.Fatalf("Collect after cancelled attempt = %v, want success", err)
	}
	if len(out) != 6 {
		t.Fatalf("got %d keys after retry, want 6", len(out))
	}
	for _, p := range out {
		if p.Value != 10 {
			t.Errorf("key %d = %d after retry, want 10", p.Key, p.Value)
		}
	}
}

// TestShuffleRetriesAfterFaultExhaustion poisons the shuffle itself: faults
// injected from inside the shuffle's source collection exhaust the attempt
// budget, so the shuffle fails after the lineage retries. The old sync.Once
// memoization cached that failure and every later collection of the dataset
// returned it; the fix retries the shuffle, which succeeds once the faults
// are spent.
func TestShuffleRetriesAfterFaultExhaustion(t *testing.T) {
	eng := NewEngine(WithWorkers(1), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 2}))
	pairs := make([]Pair[int, int], 40)
	for i := range pairs {
		pairs[i] = Pair[int, int]{Key: i % 4, Value: 1}
	}
	ds, err := FromSlice(eng, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly enough faults to exhaust one source partition's attempts,
	// raised inside the shuffle's collection; the second collection finds
	// them spent.
	mapped := MapPartitions(ds, faultFirst[Pair[int, int]](2))
	rbk := ReduceByKey(mapped, func(a, b int) int { return a + b })

	if _, err := rbk.Collect(); !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("Collect with exhausted retries = %v, want ErrTaskFailed", err)
	}
	out, err := rbk.Collect()
	if err != nil {
		t.Fatalf("Collect after faults drained = %v, want recovery", err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d keys after retry, want 4", len(out))
	}
	for _, p := range out {
		if p.Value != 10 {
			t.Errorf("key %d = %d after retry, want 10", p.Key, p.Value)
		}
	}
}

// TestJoinMixedPartitionCounts joins a wide dataset against a narrow one:
// the output must use the wider partition count and still match a nested
// loop, pinning the max(a, b) repartition semantics.
func TestJoinMixedPartitionCounts(t *testing.T) {
	eng := NewEngine(WithWorkers(4))
	left := make([]Pair[int, string], 40)
	for i := range left {
		left[i] = Pair[int, string]{Key: i % 8, Value: "l"}
	}
	right := make([]Pair[int, int], 16)
	for i := range right {
		right[i] = Pair[int, int]{Key: i % 8, Value: i}
	}
	a, err := FromSlice(eng, left, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromSlice(eng, right, 2)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := joined.NumPartitions(); got != 6 {
		t.Errorf("Join partitions = %d, want max(6, 2) = 6", got)
	}
	out, err := joined.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Nested-loop expectation: every key matches 5 left x 2 right records.
	if want := 40 * 2; len(out) != want {
		t.Fatalf("join produced %d records, want %d", len(out), want)
	}
	for _, p := range out {
		if p.Value.Right%8 != p.Key {
			t.Errorf("mismatched join record: key %d with right value %d", p.Key, p.Value.Right)
		}
	}
}

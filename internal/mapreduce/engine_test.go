package mapreduce

import (
	"context"
	"errors"
	"sync"
	"testing"

	"upa/internal/chaos"
)

func TestEngineOptions(t *testing.T) {
	e := NewEngine(WithWorkers(0), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 0}))
	if e.Workers() != 1 {
		t.Errorf("Workers = %d, want clamp to 1", e.Workers())
	}
	if got := e.RetryPolicy().Attempts(); got != 1 {
		t.Errorf("Attempts = %d, want clamp to 1", got)
	}
	e = NewEngine(WithWorkers(4), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 5}))
	if e.Workers() != 4 || e.RetryPolicy().MaxAttempts != 5 {
		t.Errorf("options not applied: %d workers, %d attempts", e.Workers(), e.RetryPolicy().MaxAttempts)
	}
}

func TestFaultInjectionRecovers(t *testing.T) {
	eng := NewEngine(WithWorkers(2), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 3}))
	d, err := FromSlice(eng, intsUpTo(100), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two faults with a three-attempt budget: even if one task absorbs
	// both, it still has a successful attempt left.
	faulty := MapPartitions(d, faultFirst[int](2))
	sum, err := Reduce(Map(faulty, func(x int) int { return x }), func(a, b int) int { return a + b })
	if err != nil {
		t.Fatalf("job failed despite retry budget: %v", err)
	}
	if sum != 4950 {
		t.Fatalf("recovered result = %d, want 4950", sum)
	}
	m := eng.Metrics()
	if m.TaskFaults != 2 {
		t.Errorf("TaskFaults = %d, want 2", m.TaskFaults)
	}
	if m.TaskAttempts <= m.TasksRun {
		t.Errorf("no retries recorded: attempts %d, runs %d", m.TaskAttempts, m.TasksRun)
	}
}

func TestFaultInjectionExhaustsRetries(t *testing.T) {
	eng := NewEngine(WithWorkers(1), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 2}))
	d, err := FromSlice(eng, intsUpTo(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	// More faults than the single task's attempt budget.
	_, err = MapPartitions(d, faultFirst[int](10)).Collect()
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("Collect error = %v, want ErrTaskFailed", err)
	}
}

func TestFaultRecomputesFromLineage(t *testing.T) {
	// A fault on the final collect must recompute through the whole
	// narrow-transformation chain and still give the right answer.
	eng := NewEngine(WithWorkers(1), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 5}))
	d, err := FromSlice(eng, intsUpTo(10), 2)
	if err != nil {
		t.Fatal(err)
	}
	chain := Filter(Map(d, func(x int) int { return x + 1 }), func(x int) bool { return x%2 == 0 })
	got, err := MapPartitions(chain, faultFirst[int](1)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if f := eng.Metrics().TaskFaults; f != 1 {
		t.Fatalf("TaskFaults = %d, want 1", f)
	}
	want := []int{2, 4, 6, 8, 10}
	if len(got) != len(want) {
		t.Fatalf("Collect = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Collect = %v, want %v", got, want)
		}
	}
}

func TestWideTransformSurvivesFaults(t *testing.T) {
	// A fault during a shuffled job must recompute through the whole wide
	// lineage and produce the exact same grouped result.
	run := func(inj *chaos.Injector) map[int]int {
		eng := NewEngine(WithWorkers(2), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 5}), WithChaos(inj))
		var pairs []Pair[int, int]
		for i := 0; i < 500; i++ {
			pairs = append(pairs, Pair[int, int]{Key: i % 7, Value: i})
		}
		d, err := FromSlice(eng, pairs, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReduceByKey(d, func(a, b int) int { return a + b }).Collect()
		if err != nil {
			t.Fatalf("shuffled job under chaos %+v failed: %v", inj.Snapshot(), err)
		}
		out := make(map[int]int, len(got))
		for _, p := range got {
			out[p.Key] = p.Value
		}
		return out
	}
	clean := run(nil)
	inj := chaos.New(chaos.Policy{Seed: 4, TaskFaultRate: 0.3, ShuffleErrorRate: 0.3})
	faulty := run(inj)
	if inj.Snapshot().Faults == 0 {
		t.Fatal("no faults fired; test exercised nothing")
	}
	if len(clean) != len(faulty) {
		t.Fatalf("group counts differ: %d vs %d", len(clean), len(faulty))
	}
	for k, v := range clean {
		if faulty[k] != v {
			t.Fatalf("key %d: %d under faults vs %d clean", k, faulty[k], v)
		}
	}
}

func TestMetricsSnapshotSub(t *testing.T) {
	eng := NewEngine()
	d, err := FromSlice(eng, intsUpTo(10), 2)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Metrics()
	if _, err := Map(d, func(x int) int { return x }).Collect(); err != nil {
		t.Fatal(err)
	}
	delta := eng.Metrics().Sub(before)
	if delta.RecordsMapped != 10 {
		t.Errorf("delta RecordsMapped = %d, want 10", delta.RecordsMapped)
	}
	if delta.TasksRun != 2 {
		t.Errorf("delta TasksRun = %d, want 2", delta.TasksRun)
	}
}

func TestCacheHitRate(t *testing.T) {
	var s MetricsSnapshot
	if s.CacheHitRate() != 0 {
		t.Error("empty snapshot should have zero hit rate")
	}
	s.CacheHits, s.CacheMisses = 3, 1
	if got := s.CacheHitRate(); got != 0.75 {
		t.Errorf("CacheHitRate = %v, want 0.75", got)
	}
}

// TestReductionCache pins AccountCache's arithmetic: hits and misses add
// exactly into their own counters and nowhere else.
func TestReductionCache(t *testing.T) {
	eng := NewEngine()
	eng.AccountCache(3, 1)
	eng.AccountCache(0, 2)
	eng.AccountCache(5, 0)
	m := eng.Metrics()
	if m.CacheHits != 8 || m.CacheMisses != 3 {
		t.Fatalf("cache counters = %d hits / %d misses, want 8/3", m.CacheHits, m.CacheMisses)
	}
	if got, want := m.CacheHitRate(), 8.0/11; got != want {
		t.Errorf("CacheHitRate = %v, want %v", got, want)
	}
	m.CacheHits, m.CacheMisses = 0, 0
	if m != (MetricsSnapshot{}) {
		t.Errorf("AccountCache moved another counter: %+v", m)
	}
}

// TestReductionCacheConcurrent accounts from 8 goroutines at once; the sums
// must come out exact, and -race pins that the counters need no lock.
func TestReductionCacheConcurrent(t *testing.T) {
	eng := NewEngine()
	const goroutines, accounts = 8, 200
	var wg sync.WaitGroup
	for g := 1; g <= goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < accounts; i++ {
				eng.AccountCache(int64(g), 1)
			}
		}(g)
	}
	wg.Wait()
	m := eng.Metrics()
	wantHits := int64(accounts * goroutines * (goroutines + 1) / 2)
	if m.CacheHits != wantHits || m.CacheMisses != goroutines*accounts {
		t.Fatalf("cache counters = %d hits / %d misses, want %d/%d",
			m.CacheHits, m.CacheMisses, wantHits, goroutines*accounts)
	}
}

// TestReductionCacheGrowsUnbounded accounts many times on one engine and
// reads the counters through Sub at every tenth account: the deltas must sum
// exactly to the totals, as a release's EngineDelta relies on.
func TestReductionCacheGrowsUnbounded(t *testing.T) {
	eng := NewEngine()
	eng.AccountCache(7, 7) // earlier traffic the deltas must exclude
	start := eng.Metrics()
	prev := start
	var sumHits, sumMisses, wantHits, wantMisses int64
	for i := 1; i <= 500; i++ {
		eng.AccountCache(int64(i), int64(i%2))
		wantHits += int64(i)
		wantMisses += int64(i % 2)
		if i%10 == 0 {
			now := eng.Metrics()
			d := now.Sub(prev)
			sumHits += d.CacheHits
			sumMisses += d.CacheMisses
			prev = now
		}
	}
	total := eng.Metrics().Sub(start)
	if total.CacheHits != wantHits || total.CacheMisses != wantMisses {
		t.Fatalf("delta = %d hits / %d misses, want %d/%d", total.CacheHits, total.CacheMisses, wantHits, wantMisses)
	}
	if sumHits != wantHits || sumMisses != wantMisses {
		t.Fatalf("summed deltas = %d hits / %d misses, want %d/%d", sumHits, sumMisses, wantHits, wantMisses)
	}
}

func TestRunTasksZero(t *testing.T) {
	eng := NewEngine()
	if err := eng.runTasks(context.Background(), "test:zero", 0, func(context.Context, int) error { return errors.New("never") }); err != nil {
		t.Fatalf("runTasks(0) = %v, want nil", err)
	}
}

func TestApplicationErrorNotRetried(t *testing.T) {
	eng := NewEngine(WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 5}))
	appErr := errors.New("app failure")
	calls := 0
	err := eng.runTasks(context.Background(), "test:app-error", 1, func(context.Context, int) error {
		calls++
		return appErr
	})
	if !errors.Is(err, appErr) {
		t.Fatalf("error = %v, want %v", err, appErr)
	}
	if calls != 1 {
		t.Fatalf("application error retried %d times", calls)
	}
}

func TestAccountBatches(t *testing.T) {
	eng := NewEngine()
	before := eng.Metrics()
	eng.AccountBatches(3, 2500)
	eng.AccountBatches(1, 500)
	d := eng.Metrics().Sub(before)
	if d.BatchesProcessed != 4 {
		t.Errorf("BatchesProcessed = %d, want 4", d.BatchesProcessed)
	}
	if d.RecordsBatched != 3000 {
		t.Errorf("RecordsBatched = %d, want 3000", d.RecordsBatched)
	}
}

package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"upa/internal/chaos"
)

// TestExhaustionErrorCarriesSiteAndOriginalError is the regression test for
// the exhausted-retries error: the old scheduler returned
// "task %d: %v"-formatted text that dropped the lineage site and flattened
// the original error out of the chain, so callers could neither tell which
// stage died nor errors.Is against the injected fault. The error must now
// carry the site label, the partition index, and the original error by
// wrapping.
func TestExhaustionErrorCarriesSiteAndOriginalError(t *testing.T) {
	// At this seed and rate both attempts of task 0 at "source:collect"
	// draw a fault.
	inj := chaos.New(chaos.Policy{Seed: 1, TaskFaultRate: 0.9})
	eng := NewEngine(WithWorkers(1), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 2}), WithChaos(inj))
	d, err := FromSlice(eng, intsUpTo(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Collect()
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("Collect = %v, want ErrTaskFailed", err)
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Errorf("original injected fault flattened out of the chain: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "source:collect") {
		t.Errorf("error %q does not name the failing site", msg)
	}
	if !strings.Contains(msg, "task 0") {
		t.Errorf("error %q does not name the failing partition", msg)
	}
}

// faultFirst returns a MapPartitions function that copies its partition
// through but fails its first n calls with an injected fault, which the
// engine retries exactly like a seeded chaos decision. Tests use it where
// they need an exact fault count, or faults that run out: a seeded decision
// fires again at the same coordinates on every later job.
func faultFirst[T any](n int64) func(int, []T) ([]T, error) {
	var calls atomic.Int64
	return func(_ int, in []T) ([]T, error) {
		if c := calls.Add(1); c <= n {
			return nil, fmt.Errorf("%w: test fault %d of %d", chaos.ErrInjected, c, n)
		}
		return append([]T(nil), in...), nil
	}
}

// chaosRun executes a ReduceByKey+Join pipeline on a fresh engine with the
// given worker count, armed with the given injector, and returns the
// collected outputs plus the metrics.
func chaosRun(t *testing.T, workers int, inj *chaos.Injector, policy chaos.RetryPolicy) ([]Pair[int, int], []Pair[int, Joined[int, string]], MetricsSnapshot) {
	t.Helper()
	eng := NewEngine(WithWorkers(workers), WithRetryPolicy(policy), WithChaos(inj))
	pairs := make([]Pair[int, int], 300)
	for i := range pairs {
		pairs[i] = Pair[int, int]{Key: i % 11, Value: i}
	}
	labels := make([]Pair[int, string], 22)
	for i := range labels {
		labels[i] = Pair[int, string]{Key: i % 11, Value: string(rune('a' + i%11))}
	}
	d, err := FromSlice(eng, pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	l, err := FromSlice(eng, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	reduced := ReduceByKey(d, func(a, b int) int { return a + b })
	joined, err := Join(reduced, l)
	if err != nil {
		t.Fatal(err)
	}
	rOut, err := reduced.Collect()
	if err != nil {
		t.Fatalf("reduce under chaos: %v", err)
	}
	jOut, err := joined.Collect()
	if err != nil {
		t.Fatalf("join under chaos: %v", err)
	}
	return rOut, jOut, eng.Metrics()
}

// TestSeededChaosOutputInvariant is the engine-level half of the headline
// invariant: under seeded task faults, stragglers, shuffle errors, and slot
// loss, a wide pipeline's output is identical to the fault-free run, every
// logical task still runs exactly once, and the attempt count exceeds the
// clean run by exactly the faults injected.
func TestSeededChaosOutputInvariant(t *testing.T) {
	policy := chaos.RetryPolicy{MaxAttempts: 6, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 100 * time.Microsecond, Jitter: 0.5, JitterSeed: 3}
	cleanR, cleanJ, cleanM := chaosRun(t, 4, nil, policy)
	for seed := uint64(1); seed <= 5; seed++ {
		inj := chaos.New(chaos.Policy{
			Seed:             seed,
			TaskFaultRate:    0.15,
			StragglerRate:    0.1,
			StragglerDelay:   100 * time.Microsecond,
			ShuffleErrorRate: 0.2,
			SlotLossRate:     0.25,
		})
		r, j, m := chaosRun(t, 4, inj, policy)
		if !reflect.DeepEqual(r, cleanR) {
			t.Fatalf("seed %d: reduce output diverged under chaos", seed)
		}
		if !reflect.DeepEqual(j, cleanJ) {
			t.Fatalf("seed %d: join output diverged under chaos", seed)
		}
		if m.TasksRun != cleanM.TasksRun {
			t.Errorf("seed %d: TasksRun = %d under chaos, %d clean", seed, m.TasksRun, cleanM.TasksRun)
		}
		if m.TaskAttempts-m.TaskFaults != cleanM.TaskAttempts {
			t.Errorf("seed %d: fault-adjusted attempts %d-%d != clean %d",
				seed, m.TaskAttempts, m.TaskFaults, cleanM.TaskAttempts)
		}
		if c := inj.Snapshot(); c.Faults > 0 && m.TaskRetries == 0 {
			t.Errorf("seed %d: %d faults injected but no retries recorded", seed, c.Faults)
		}
	}
}

// TestSeededChaosReproducible: the same seed must produce the same fault
// pattern (same injector counters), which is what makes soak failures
// replayable.
func TestSeededChaosReproducible(t *testing.T) {
	policy := chaos.RetryPolicy{MaxAttempts: 6}
	p := chaos.Policy{Seed: 99, TaskFaultRate: 0.2, ShuffleErrorRate: 0.2}
	a, b := chaos.New(p), chaos.New(p)
	_, _, mA := chaosRun(t, 4, a, policy)
	_, _, mB := chaosRun(t, 4, b, policy)
	if a.Snapshot().Faults == 0 {
		t.Fatal("no faults fired; test exercised nothing")
	}
	if a.Snapshot() != b.Snapshot() {
		t.Errorf("same seed, different injections: %+v vs %+v", a.Snapshot(), b.Snapshot())
	}
	if mA.TaskFaults != mB.TaskFaults || mA.TaskRetries != mB.TaskRetries {
		t.Errorf("same seed, different retry metrics: %+v vs %+v", mA, mB)
	}
}

// TestSeededChaosIndependentOfWorkers: a seeded fault pattern is a function
// of the pipeline, not of the schedule. With fixed partition counts and an
// unlimited retry budget, running at 1, 2 and 8 workers injects the same
// faults, stragglers and shuffle errors and spends the same attempts. Slot
// loss is left out: it draws per worker slot, so its pattern depends on the
// worker count by design.
func TestSeededChaosIndependentOfWorkers(t *testing.T) {
	policy := chaos.RetryPolicy{MaxAttempts: 20}
	p := chaos.Policy{
		Seed:             1,
		TaskFaultRate:    0.3,
		StragglerRate:    0.2,
		StragglerDelay:   50 * time.Microsecond,
		ShuffleErrorRate: 0.3,
	}
	type run struct {
		r   []Pair[int, int]
		j   []Pair[int, Joined[int, string]]
		inj chaos.Counters
		m   MetricsSnapshot
	}
	var base run
	for _, workers := range []int{1, 2, 8} {
		inj := chaos.New(p)
		r, j, m := chaosRun(t, workers, inj, policy)
		got := run{r, j, inj.Snapshot(), m}
		if workers == 1 {
			if got.inj.Faults == 0 || got.inj.ShuffleErrors == 0 || got.inj.Stragglers == 0 {
				t.Fatalf("injector counters %+v: every fault kind must fire", got.inj)
			}
			base = got
			continue
		}
		if !reflect.DeepEqual(got.r, base.r) || !reflect.DeepEqual(got.j, base.j) {
			t.Errorf("%d workers: output differs from 1 worker", workers)
		}
		if got.inj != base.inj {
			t.Errorf("%d workers: injector counters %+v, 1 worker %+v", workers, got.inj, base.inj)
		}
		if got.m.TaskFaults != base.m.TaskFaults || got.m.TaskAttempts != base.m.TaskAttempts ||
			got.m.TaskRetries != base.m.TaskRetries || got.m.ShuffleRetries != base.m.ShuffleRetries {
			t.Errorf("%d workers: faults/attempts/retries/shuffle retries %d/%d/%d/%d, 1 worker %d/%d/%d/%d",
				workers, got.m.TaskFaults, got.m.TaskAttempts, got.m.TaskRetries, got.m.ShuffleRetries,
				base.m.TaskFaults, base.m.TaskAttempts, base.m.TaskRetries, base.m.ShuffleRetries)
		}
	}
}

// TestRetryBudgetFailsFast: once the per-job retry budget is spent, the next
// failure is terminal even though the task has attempts left.
func TestRetryBudgetFailsFast(t *testing.T) {
	eng := NewEngine(WithWorkers(1), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 10, RetryBudget: 1}))
	d, err := FromSlice(eng, intsUpTo(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = MapPartitions(d, faultFirst[int](5)).Collect()
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("Collect = %v, want ErrTaskFailed", err)
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Errorf("error %q does not mention the exhausted budget", err)
	}
	if got := eng.Metrics().TaskRetries; got != 1 {
		t.Errorf("TaskRetries = %d, want exactly the budget of 1", got)
	}
}

// TestTaskDeadlineRetries: an attempt exceeding the per-attempt deadline is
// cancelled and retried while the job itself stays live.
func TestTaskDeadlineRetries(t *testing.T) {
	eng := NewEngine(WithWorkers(1), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 3, TaskDeadline: 5 * time.Millisecond}))
	var attempts atomic.Int64
	err := eng.runTasks(context.Background(), "test:deadline", 1, func(tctx context.Context, _ int) error {
		if attempts.Add(1) == 1 {
			<-tctx.Done() // hang until the attempt deadline fires
			return tctx.Err()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("runTasks = %v, want recovery on second attempt", err)
	}
	m := eng.Metrics()
	if m.DeadlinesExceeded != 1 {
		t.Errorf("DeadlinesExceeded = %d, want 1", m.DeadlinesExceeded)
	}
	if m.TasksRun != 1 || attempts.Load() != 2 {
		t.Errorf("TasksRun = %d, attempts = %d, want 1 and 2", m.TasksRun, attempts.Load())
	}
}

// TestParentCancellationBeatsDeadline: when the job's own context dies, the
// deadline classification must not mistake it for a straggling attempt.
func TestParentCancellationBeatsDeadline(t *testing.T) {
	eng := NewEngine(WithWorkers(1), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 5, TaskDeadline: time.Minute}))
	ctx, cancel := context.WithCancel(context.Background())
	err := eng.runTasks(ctx, "test:parent-cancel", 1, func(tctx context.Context, _ int) error {
		cancel()
		<-tctx.Done()
		return tctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runTasks = %v, want context.Canceled", err)
	}
	if got := eng.Metrics().DeadlinesExceeded; got != 0 {
		t.Errorf("DeadlinesExceeded = %d, want 0 (parent died, not the attempt)", got)
	}
}

// TestSlotLossRedistributesWork: losing worker slots must not lose tasks.
func TestSlotLossRedistributesWork(t *testing.T) {
	inj := chaos.New(chaos.Policy{Seed: 5, SlotLossRate: 0.9})
	eng := NewEngine(WithWorkers(8), WithChaos(inj))
	d, err := FromSlice(eng, intsUpTo(100), 16)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Reduce(d, func(a, b int) int { return a + b })
	if err != nil {
		t.Fatalf("Reduce = %v, want success despite slot loss", err)
	}
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
	if got := eng.Metrics().SlotsLost; got == 0 {
		t.Error("no slots lost at rate 0.9 over 8 slots")
	}
}

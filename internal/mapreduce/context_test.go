package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"upa/internal/chaos"
)

// TestCancelledContextStopsScheduling cancels the context from inside the
// first task: a single-worker engine must not claim any further task, so a
// cancelled job stops scheduling instead of running to completion.
func TestCancelledContextStopsScheduling(t *testing.T) {
	eng := NewEngine(WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	err := eng.runTasks(ctx, "test:cancel", 50, func(_ context.Context, i int) error {
		ran++
		if i == 0 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runTasks = %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Fatalf("tasks run after cancellation: %d, want 1", ran)
	}
}

// TestCancelledContextStopsRetries cancels during a fault-retry loop: the
// attempt budget must not be spent on a dead job.
func TestCancelledContextStopsRetries(t *testing.T) {
	eng := NewEngine(WithWorkers(1), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 100}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancel()
	err := eng.runTasks(ctx, "test:cancel-retries", 1, func(context.Context, int) error {
		return fmt.Errorf("%w: every attempt faults", chaos.ErrInjected)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runTasks = %v, want context.Canceled", err)
	}
	if got := eng.Metrics().TaskAttempts; got != 0 {
		t.Fatalf("attempts under cancelled context = %d, want 0", got)
	}
}

// TestActionContextVariants exercises cancellation through the public
// dataset actions.
func TestActionContextVariants(t *testing.T) {
	eng := NewEngine(WithWorkers(2))
	ds, err := FromSlice(eng, intsUpTo(100), 10)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.CollectCtx(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("CollectCtx = %v, want context.Canceled", err)
	}
	if _, err := ds.CountCtx(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("CountCtx = %v, want context.Canceled", err)
	}
	if _, err := ReduceCtx(cancelled, ds, func(a, b int) int { return a + b }); !errors.Is(err, context.Canceled) {
		t.Errorf("ReduceCtx = %v, want context.Canceled", err)
	}

	// A live context leaves the actions untouched.
	sum, err := ReduceCtx(context.Background(), ds, func(a, b int) int { return a + b })
	if err != nil || sum != 4950 {
		t.Fatalf("ReduceCtx live = %v, %v, want 4950", sum, err)
	}
}

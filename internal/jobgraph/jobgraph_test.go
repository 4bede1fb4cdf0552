package jobgraph

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"upa/internal/chaos"
)

func noop(context.Context, *StageContext) error { return nil }

func TestValidateRejectsBadGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want string
	}{
		{"empty graph", New("g"), "empty graph"},
		{"empty stage name", New("g").Stage("", noop), "empty name"},
		{"duplicate stage", New("g").Stage("a", noop).Stage("a", noop), "duplicate"},
		{"nil function", New("g").Stage("a", nil), "nil function"},
		{"unknown dep", New("g").Stage("a", noop, "ghost"), "unknown stage"},
		{"self cycle", New("g").Stage("a", noop, "a"), "cycle"},
	}
	for _, c := range cases {
		err := c.g.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := New("g").
		Stage("a", noop, "c").
		Stage("b", noop, "a").
		Stage("c", noop, "b")
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate() = %v, want ErrCycle", err)
	}
	if _, err := g.Run(context.Background()); !errors.Is(err, ErrCycle) {
		t.Fatalf("Run() = %v, want ErrCycle", err)
	}
}

func TestRunRespectsDependencies(t *testing.T) {
	var order []string
	record := func(name string) StageFunc {
		return func(context.Context, *StageContext) error {
			order = append(order, name) // safe: chain is linear
			return nil
		}
	}
	g := New("g", WithSlots(4)).
		Stage("c", record("c"), "b").
		Stage("a", record("a")).
		Stage("b", record("b"), "a")
	spans, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("execution order = %v, want [a b c]", order)
	}
	// Spans come back in declaration order with deps recorded.
	if spans[0].Stage != "c" || len(spans[0].Deps) != 1 || spans[0].Deps[0] != "b" {
		t.Errorf("span[0] = %+v", spans[0])
	}
	for _, s := range spans {
		if s.Duration() <= 0 {
			t.Errorf("stage %s has non-positive duration", s.Stage)
		}
		if s.Attempts != 1 {
			t.Errorf("stage %s attempts = %d, want 1", s.Stage, s.Attempts)
		}
	}
}

// TestIndependentStagesOverlap proves the pipelining claim: two stages with
// no dependency between them must be in flight simultaneously. Each stage
// signals its start and then waits for the other's signal; a serial
// scheduler would deadlock (bounded here by a timeout).
func TestIndependentStagesOverlap(t *testing.T) {
	aStarted := make(chan struct{})
	bStarted := make(chan struct{})
	rendezvous := func(mine, other chan struct{}) StageFunc {
		return func(ctx context.Context, _ *StageContext) error {
			close(mine)
			select {
			case <-other:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("peer stage never started: no overlap")
			}
		}
	}
	g := New("g", WithSlots(2)).
		Stage("a", rendezvous(aStarted, bStarted)).
		Stage("b", rendezvous(bStarted, aStarted))
	if _, err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedStageCommitsEveryPartition: in a clean run every stage
// runs its one task once, and what a stage writes is visible to the stages
// that depend on it — the scheduler's completion order is the happens-before
// edge between them.
func TestPartitionedStageCommitsEveryPartition(t *testing.T) {
	const parts = 8
	out := make([]int, parts)
	var sum int
	g := New("g", WithSlots(3))
	deps := make([]string, parts)
	for p := range parts {
		deps[p] = fmt.Sprintf("square-%d", p)
		g.Stage(deps[p], func(_ context.Context, sc *StageContext) error {
			out[p] = p * p
			sc.AddRecords(1)
			return nil
		})
	}
	g.Stage("sum", func(context.Context, *StageContext) error {
		for _, v := range out {
			sum += v
		}
		return nil
	}, deps...)
	spans, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 140; sum != want { // 0² + 1² + … + 7²
		t.Errorf("dependent stage read sum %d, want %d", sum, want)
	}
	for _, s := range spans {
		if s.Attempts != 1 || s.Retries != 0 {
			t.Errorf("stage %s: %d attempts / %d retries, want 1/0 in a clean run", s.Stage, s.Attempts, s.Retries)
		}
	}
	if spans[0].Records != 1 {
		t.Errorf("span records = %d, want 1", spans[0].Records)
	}
}

// TestSpeculativeRetry: a stage whose first attempt straggles past the
// attempt deadline does not hold back an independent sibling — the sibling
// completes while the straggler still occupies its slot — and the straggler's
// late retry is the attempt whose result the stage returns.
func TestSpeculativeRetry(t *testing.T) {
	slowStarted := make(chan struct{})
	siblingDone := make(chan struct{})
	var calls atomic.Int64
	var out string
	g := New("g", WithSlots(2),
		WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 2, TaskDeadline: 20 * time.Millisecond})).
		Stage("slow", func(ctx context.Context, _ *StageContext) error {
			if calls.Add(1) > 1 {
				out = "retry"
				return nil
			}
			close(slowStarted)
			select {
			case <-siblingDone:
			case <-time.After(5 * time.Second):
				return errors.New("sibling held back by the straggler")
			}
			<-ctx.Done() // straggle until the attempt deadline fires
			return ctx.Err()
		}).
		Stage("sibling", func(context.Context, *StageContext) error {
			<-slowStarted
			close(siblingDone)
			return nil
		})
	spans, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out != "retry" {
		t.Errorf("stage result %q, want the retry's", out)
	}
	slow, sibling := spans[0], spans[1]
	if slow.Attempts != 2 || slow.Retries != 1 {
		t.Errorf("straggler span = %d attempts / %d retries, want 2/1", slow.Attempts, slow.Retries)
	}
	if !sibling.End.Before(slow.End) {
		t.Errorf("sibling ended at %v, after the straggler's %v", sibling.End, slow.End)
	}
}

func TestStageErrorAbortsDownstream(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	g := New("g").
		Stage("fail", func(context.Context, *StageContext) error { return boom }).
		Stage("after", func(context.Context, *StageContext) error { ran = true; return nil }, "fail")
	spans, err := g.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("Run() = %v, want boom", err)
	}
	if ran {
		t.Fatal("dependent stage ran after its dependency failed")
	}
	if spans[0].Err == "" {
		t.Errorf("failed stage span missing error: %+v", spans[0])
	}
	if !spans[1].Start.IsZero() || spans[1].Duration() != 0 {
		t.Errorf("never-started stage has a span time: %+v", spans[1])
	}
}

// TestPartitionFailureFailsStage: an application error is terminal — it
// fails Run at once and the stage is not retried.
func TestPartitionFailureFailsStage(t *testing.T) {
	boom := errors.New("stage boom")
	ran := 0
	g := New("g", WithSlots(2), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 3})).
		Stage("work", func(context.Context, *StageContext) error { ran++; return boom })
	spans, err := g.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("Run() = %v, want stage boom", err)
	}
	if ran != 1 || spans[0].Attempts != 1 || spans[0].Retries != 0 {
		t.Errorf("stage ran %d times, span %d attempts / %d retries; want 1, 1/0", ran, spans[0].Attempts, spans[0].Retries)
	}
}

// TestCancellationStopsScheduling cancels the context while the root stage
// is running: the root observes the cancellation, and no dependent stage is
// ever started.
func TestCancellationStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	g := New("g", WithSlots(2)).
		Stage("root", func(ctx context.Context, _ *StageContext) error {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		}).
		Stage("after", func(context.Context, *StageContext) error { ran = true; return nil }, "root")
	_, err := g.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("dependent stage ran after cancellation")
	}
}

// TestCancellationSkipsUnstartedRoots cancels before Run: even root stages
// must not execute their bodies.
func TestCancellationSkipsUnstartedRoots(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Bool{}
	g := New("g", WithSlots(1)).
		Stage("a", func(context.Context, *StageContext) error { ran.Store(true); return nil })
	if _, err := g.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("stage body ran under a cancelled context")
	}
}

func TestSpanCounters(t *testing.T) {
	g := New("g").
		Stage("a", func(_ context.Context, sc *StageContext) error {
			sc.AddRecords(10)
			sc.AddShuffle(4, 400)
			sc.AddReduceOps(9)
			sc.AddCacheHits(3)
			return nil
		})
	spans, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := spans[0]
	if s.Records != 10 || s.ShuffledRecords != 4 || s.ShuffleBytes != 400 || s.ReduceOps != 9 || s.CacheHits != 3 {
		t.Fatalf("span counters = %+v", s)
	}
}

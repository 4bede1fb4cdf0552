package jobgraph

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"upa/internal/chaos"
)

// TestLateSpeculativeCommitNotAppliedAfterFailure: when one stage fails,
// Run waits for every in-flight sibling to finish before it returns, so no
// stage mutates caller-visible state after Run has returned. The write is
// deliberately unsynchronized: under -race, a Run that returned while the
// slow sibling was still writing is flagged here.
func TestLateSpeculativeCommitNotAppliedAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	slowStarted := make(chan struct{})
	commitRan := 0 // deliberately unsynchronized: the race detector is the assertion
	g := New("g", WithSlots(2)).
		Stage("fail", func(context.Context, *StageContext) error {
			<-slowStarted
			return boom
		}).
		Stage("slow", func(context.Context, *StageContext) error {
			close(slowStarted)
			time.Sleep(5 * time.Millisecond) // slow write, deaf to the abort
			commitRan++
			return nil
		})
	_, err := g.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("Run() = %v, want boom", err)
	}
	if commitRan != 1 {
		t.Fatalf("slow stage's write not settled when Run returned: commitRan = %d", commitRan)
	}
	time.Sleep(20 * time.Millisecond)
	if commitRan != 1 {
		t.Fatalf("stage mutated state after Run returned: commitRan = %d", commitRan)
	}
}

// findStageSeed probes the seeded stage-fault stream for a seed whose fault
// pattern at site "g/work", task 0 matches want (want[i] = should attempt
// i+1 fault). Deterministic at test time, robust to hash details.
func findStageSeed(t *testing.T, rate float64, want []bool) chaos.Policy {
	t.Helper()
	for seed := uint64(1); seed < 5000; seed++ {
		p := chaos.Policy{Seed: seed, TaskFaultRate: rate}
		probe := chaos.New(p)
		ok := true
		for i, w := range want {
			if probe.StageFault("g/work", 0, i+1) != w {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	t.Fatalf("no seed produces stage-fault pattern %v at rate %v", want, rate)
	return chaos.Policy{}
}

// TestPlainStageRetriesInjectedFaults: a plain stage absorbing injected
// faults retries under the policy and records the retries in its span.
func TestPlainStageRetriesInjectedFaults(t *testing.T) {
	// Attempts 1 and 2 fault, attempt 3 passes.
	inj := chaos.New(findStageSeed(t, 0.5, []bool{true, true, false}))
	ran := 0
	g := New("g", WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 3}), WithChaos(inj)).
		Stage("work", func(context.Context, *StageContext) error { ran++; return nil })
	spans, err := g.Run(context.Background())
	if err != nil {
		t.Fatalf("Run() = %v, want recovery within 3 attempts", err)
	}
	if ran != 1 {
		t.Errorf("stage body ran %d times, want 1", ran)
	}
	s := spans[0]
	if s.Attempts != 3 || s.Retries != 2 || s.TaskFaults != 2 {
		t.Errorf("span = %d attempts / %d retries / %d faults, want 3/2/2", s.Attempts, s.Retries, s.TaskFaults)
	}
}

// TestPlainStageExhaustionNamesSite: out of attempts, the error names the
// graph/stage site and keeps the injected fault in the chain.
func TestPlainStageExhaustionNamesSite(t *testing.T) {
	inj := chaos.New(findStageSeed(t, 0.5, []bool{true, true}))
	g := New("g", WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 2}), WithChaos(inj)).
		Stage("work", func(context.Context, *StageContext) error { return nil })
	_, err := g.Run(context.Background())
	if err == nil {
		t.Fatal("Run() = nil, want exhaustion error")
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Errorf("injected fault flattened out of the chain: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "g/work") || !strings.Contains(msg, "gave up after 2 attempts") {
		t.Errorf("error %q does not name the site and attempt count", msg)
	}
}

// TestGraphRetryBudgetFailsFast: the per-Run budget caps total retries even
// when individual tasks have attempts left.
func TestGraphRetryBudgetFailsFast(t *testing.T) {
	inj := chaos.New(findStageSeed(t, 0.5, []bool{true, true}))
	g := New("g", WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 10, RetryBudget: 1}), WithChaos(inj)).
		Stage("work", func(context.Context, *StageContext) error { return nil })
	_, err := g.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("Run() = %v, want retry-budget exhaustion", err)
	}
}

// TestPartitionedStageRetriesSeededFaults: a stage under seeded stage
// faults absorbs them, runs its body once, and the same seed reproduces the
// same fault and retry counts run to run.
func TestPartitionedStageRetriesSeededFaults(t *testing.T) {
	policy := chaos.RetryPolicy{MaxAttempts: 6, BaseBackoff: 10 * time.Microsecond}
	// Attempt 1 faults, attempt 2 passes.
	faults := findStageSeed(t, 0.4, []bool{true, false})
	run := func() Span {
		ran := 0
		g := New("g", WithSlots(4), WithRetryPolicy(policy), WithChaos(chaos.New(faults))).
			Stage("work", func(context.Context, *StageContext) error { ran++; return nil })
		spans, err := g.Run(context.Background())
		if err != nil {
			t.Fatalf("Run() = %v, want recovery under seeded faults", err)
		}
		if ran != 1 {
			t.Fatalf("stage body ran %d times, want exactly once", ran)
		}
		return spans[0]
	}
	s1, s2 := run(), run()
	if s1.TaskFaults == 0 || s1.Retries == 0 {
		t.Errorf("span recorded %d faults / %d retries, want > 0", s1.TaskFaults, s1.Retries)
	}
	if s1.TaskFaults != s2.TaskFaults || s1.Retries != s2.Retries || s1.BackoffNanos != s2.BackoffNanos {
		t.Errorf("same seed, different fault pattern: %d/%d/%d vs %d/%d/%d",
			s1.TaskFaults, s1.Retries, s1.BackoffNanos, s2.TaskFaults, s2.Retries, s2.BackoffNanos)
	}
}

// TestPartitionAttemptDeadlineRetries: a stage attempt exceeding the
// policy's per-attempt deadline is cancelled and re-run once while the job
// stays live.
func TestPartitionAttemptDeadlineRetries(t *testing.T) {
	calls := 0
	g := New("g", WithSlots(2),
		WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 3, TaskDeadline: 5 * time.Millisecond})).
		Stage("work", func(ctx context.Context, _ *StageContext) error {
			if calls++; calls == 1 {
				<-ctx.Done() // hang until the attempt deadline fires
				return ctx.Err()
			}
			return nil
		})
	spans, err := g.Run(context.Background())
	if err != nil {
		t.Fatalf("Run() = %v, want recovery on second attempt", err)
	}
	if calls != 2 || spans[0].Attempts != 2 || spans[0].Retries != 1 {
		t.Errorf("stage ran %d times, span %d attempts / %d retries; want 2, 2/1", calls, spans[0].Attempts, spans[0].Retries)
	}
}

package chaos

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// ErrExhausted marks a retry loop that gave up: its attempts or its job's
// retry budget ran out. The engine knows it as mapreduce.ErrTaskFailed. It
// is terminal at every level, even when the chain also carries the
// ErrInjected fault that caused it: the inner loop already re-ran the work
// as often as the policy allows, and running it again from an outer loop
// would double-run its tasks.
var ErrExhausted = errors.New("chaos: retries exhausted")

// Transient is the one classification of a failed attempt shared by the
// engine's task and shuffle loops and the jobgraph's stage loop: an injected
// fault, or a per-attempt deadline that fired while live (the job's own
// context) is still running, is worth another attempt — unless an inner loop
// already gave up on it (ErrExhausted). Application errors and cancellation
// of the job itself are terminal.
func Transient(err error, live context.Context) bool {
	if errors.Is(err, ErrExhausted) {
		return false
	}
	return errors.Is(err, ErrInjected) || errors.Is(err, context.DeadlineExceeded) && live.Err() == nil
}

// RetryPolicy governs how the engine and the jobgraph scheduler respond to
// retryable failures: how many attempts each task gets, how long to back off
// between them (exponential with seeded jitter, so backoff schedules are as
// reproducible as the faults that trigger them), how long one attempt may
// run, and how many retries one whole job may spend before failing fast.
//
// The zero value is usable but degenerate (one attempt, no backoff, no
// deadline, unlimited budget); DefaultRetryPolicy matches the engine's
// historical behaviour.
type RetryPolicy struct {
	// MaxAttempts bounds the tries per task (first attempt included).
	// Values below one behave as one.
	MaxAttempts int
	// BaseBackoff is the pre-jitter wait before the first retry; each
	// further retry doubles it, capped at MaxBackoff (when positive).
	// Zero disables backoff entirely.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter spreads each backoff uniformly over [1-Jitter, 1+Jitter]
	// times its nominal value, deterministically per (site, task, attempt)
	// under JitterSeed. Values outside [0, 1] are clamped.
	Jitter     float64
	JitterSeed uint64
	// TaskDeadline bounds one attempt's runtime. An attempt exceeding it
	// is cancelled and counts as a retryable failure (the parent context's
	// own expiry stays terminal). Zero disables the deadline.
	TaskDeadline time.Duration
	// RetryBudget bounds the total retries of one job (one runTasks call,
	// one shuffle materialization, or one jobgraph run — each makes its
	// own Budget). Once exhausted the next failure is terminal, so a
	// systemically sick job fails fast instead of thrashing through every
	// task's full attempt allowance. Zero means unlimited.
	RetryBudget int
}

// DefaultRetryPolicy is the engine's historical contract: three attempts,
// immediate retry, no deadline, unlimited budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3}
}

// Attempts returns MaxAttempts clamped to at least one.
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the wait before retry number `retry` (1-based: the wait
// between the first failure and the second attempt is retry 1) of `task` at
// `site`. Exponential in the retry number with a deterministic seeded
// jitter.
func (p RetryPolicy) Backoff(site string, task, retry int) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	if retry < 1 {
		retry = 1
	}
	d := float64(p.BaseBackoff) * math.Pow(2, float64(retry-1))
	if p.MaxBackoff > 0 && d > float64(p.MaxBackoff) {
		d = float64(p.MaxBackoff)
	}
	if j := p.jitter(); j > 0 {
		h := mix64(p.JitterSeed ^ mix64(hashString(site)^uint64(task)) ^ uint64(retry))
		d *= 1 - j + 2*j*uniform(h)
	}
	if d < 0 {
		return 0
	}
	return time.Duration(d)
}

func (p RetryPolicy) jitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0
	case p.Jitter > 1:
		return 1
	default:
		return p.Jitter
	}
}

// Sleep waits out one backoff or straggler delay: it sleeps for d or until
// ctx is done, reporting whether the full sleep completed.
func Sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// NewBudget returns the per-job retry allowance this policy grants.
func (p RetryPolicy) NewBudget() *Budget {
	b := &Budget{unlimited: p.RetryBudget <= 0}
	if !b.unlimited {
		b.remaining.Store(int64(p.RetryBudget))
	}
	return b
}

// Budget is one job's shared retry allowance. Safe for concurrent use; a
// nil Budget is unlimited.
type Budget struct {
	unlimited bool
	remaining atomic.Int64
	used      atomic.Int64
}

// Take consumes one retry from the budget, reporting false once exhausted.
func (b *Budget) Take() bool {
	if b == nil {
		return true
	}
	if b.unlimited {
		b.used.Add(1)
		return true
	}
	for {
		r := b.remaining.Load()
		if r <= 0 {
			return false
		}
		if b.remaining.CompareAndSwap(r, r-1) {
			b.used.Add(1)
			return true
		}
	}
}

// Used reports how many retries the job has spent.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

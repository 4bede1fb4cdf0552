package jobgraph

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"upa/internal/chaos"
)

// StageContext collects a running stage's span counters. Its methods are
// safe for concurrent use, so a stage body may report from the goroutines it
// starts.
type StageContext struct {
	records         atomic.Int64
	shuffledRecords atomic.Int64
	shuffleBytes    atomic.Int64
	reduceOps       atomic.Int64
	cacheHits       atomic.Int64
}

// AddRecords reports n input records processed by the stage. Span counters
// are operator-visible telemetry, so every Add* method is a dpflow sink:
// pre-noise values must never be folded into them.
//
//upa:dpsink
func (sc *StageContext) AddRecords(n int64) { sc.records.Add(n) }

// AddShuffle reports a data exchange of records rows totalling bytes.
//
//upa:dpsink
func (sc *StageContext) AddShuffle(records, bytes int64) {
	sc.shuffledRecords.Add(records)
	sc.shuffleBytes.Add(bytes)
}

// AddReduceOps reports n reduce operations performed by the stage.
//
//upa:dpsink
func (sc *StageContext) AddReduceOps(n int64) { sc.reduceOps.Add(n) }

// AddCacheHits reports n reuses of R(M(S')) taken by the stage — the cache
// hits of the paper's Figure 4(b).
//
//upa:dpsink
func (sc *StageContext) AddCacheHits(n int64) { sc.cacheHits.Add(n) }

// snapshot copies the counters into span once the stage has finished, so
// every attempt's reports are included.
func (sc *StageContext) snapshot(span *Span) {
	span.Records = sc.records.Load()
	span.ShuffledRecords = sc.shuffledRecords.Load()
	span.ShuffleBytes = sc.shuffleBytes.Load()
	span.ReduceOps = sc.reduceOps.Load()
	span.CacheHits = sc.cacheHits.Load()
}

// Run validates the graph and executes it: every stage starts as soon as all
// its dependencies have completed, so independent stages overlap on the
// shared slot pool. The first stage error (or a context cancellation) stops
// the scheduler from starting further stages, waits for in-flight stages to
// drain, and is returned. Spans are returned in declaration order even on
// failure; stages that never started have zero times.
func (g *Graph) Run(ctx context.Context) ([]Span, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(g.stages)
	spans := make([]Span, n)
	indegree := make([]int, n)
	dependents := make([][]int, n)
	for i, s := range g.stages {
		spans[i].Stage = s.name
		spans[i].Deps = append([]string{}, s.deps...)
		indegree[i] = len(s.deps)
		for _, d := range s.deps {
			j := g.index[d]
			dependents[j] = append(dependents[j], i)
		}
	}

	slots := make(chan struct{}, g.slots)
	// One retry budget per Run: every stage's retries draw from it, so a
	// systemically sick release fails fast instead of every stage burning
	// its full attempt allowance.
	budget := g.policy.NewBudget()
	type completion struct {
		stage int
		err   error
	}
	done := make(chan completion)

	var firstErr error
	running := 0
	start := func(i int) {
		running++
		go func() {
			spans[i].Start = g.now()
			err := g.runStage(runCtx, g.stages[i], &spans[i], slots, budget)
			spans[i].End = g.now()
			if err != nil {
				spans[i].Err = err.Error()
			}
			done <- completion{stage: i, err: err}
		}()
	}

	for i, deg := range indegree {
		if deg == 0 {
			start(i)
		}
	}
	for running > 0 {
		c := <-done
		running--
		if c.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("jobgraph: %s: stage %q: %w", g.name, g.stages[c.stage].name, c.err)
				cancel() // abort in-flight stages; no new ones start below
			}
			continue
		}
		if firstErr != nil {
			continue
		}
		for _, dep := range dependents[c.stage] {
			indegree[dep]--
			if indegree[dep] == 0 {
				start(dep)
			}
		}
	}
	if firstErr == nil {
		if err := ctx.Err(); err != nil {
			firstErr = fmt.Errorf("jobgraph: %s: %w", g.name, err)
		}
	}
	return spans, firstErr
}

// runStage executes one stage on one slot, held across its retries — a
// retrying stage is still occupying its executor.
func (g *Graph) runStage(ctx context.Context, s *stage, span *Span, slots chan struct{}, budget *chaos.Budget) error {
	// Check cancellation before acquiring a slot: with both a free slot and
	// a cancelled context the select below would pick at random.
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-slots }()
	sc := &StageContext{}
	err := g.retryStage(ctx, s, span, sc, budget)
	sc.snapshot(span)
	return err
}

// retryStage is the stage's retry loop: transient failures (chaos.Transient)
// are retried with backoff, drawing on the per-Run budget; everything else
// is terminal. Giving up wraps chaos.ErrExhausted, so an enclosing retry loop
// does not run the stage again. It stays a function of its own: folded into
// runStage, the larger frame made every stage goroutine grow its stack,
// which doubled the scheduler's cost per stage.
func (g *Graph) retryStage(ctx context.Context, s *stage, span *Span, sc *StageContext, budget *chaos.Budget) error {
	site := g.name + "/" + s.name
	maxAttempts := g.policy.Attempts()
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 1 {
			if !budget.Take() {
				return fmt.Errorf("%w: %s: retry budget exhausted after %d attempts: %w",
					chaos.ErrExhausted, site, attempt-1, lastErr)
			}
			span.Retries++
			if d := g.policy.Backoff(site, 0, attempt-1); d > 0 {
				span.BackoffNanos += int64(d)
				if !chaos.Sleep(ctx, d) {
					return ctx.Err()
				}
			}
		}
		span.Attempts = attempt
		if g.inj.StageFault(site, 0, attempt) {
			span.TaskFaults++
			lastErr = fmt.Errorf("%w: %s attempt %d", chaos.ErrInjected, site, attempt)
			continue
		}
		if d := g.inj.TaskDelay(site, 0, attempt); d > 0 {
			if !chaos.Sleep(ctx, d) {
				return ctx.Err()
			}
		}
		attemptCtx, cancel := g.attemptContext(ctx)
		err := s.fn(attemptCtx, sc)
		cancel()
		if err == nil {
			return nil
		}
		if !chaos.Transient(err, ctx) {
			return err
		}
		if errors.Is(err, chaos.ErrInjected) {
			span.TaskFaults++
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %s: gave up after %d attempts: %w", chaos.ErrExhausted, site, maxAttempts, lastErr)
}

// attemptContext bounds one attempt with the policy's per-attempt deadline.
func (g *Graph) attemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := g.policy.TaskDeadline; d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

package jobgraph

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"upa/internal/chaos"
)

// StageContext collects a running stage's span counters. Its methods are
// safe for concurrent use by the partitions of a partitioned stage.
type StageContext struct {
	records            atomic.Int64
	shuffledRecords    atomic.Int64
	shuffleBytes       atomic.Int64
	reduceOps          atomic.Int64
	cacheHits          atomic.Int64
	recordsPreCombine  atomic.Int64
	recordsPostCombine atomic.Int64
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

// AddCacheHits reports n reduction-cache hits taken by the stage.
//
//upa:dpsink
func (sc *StageContext) AddCacheHits(n int64) { sc.cacheHits.Add(n) }

// AddCombine reports one map-side combine pass: pre records entered the
// combiners and post combined records went on to the shuffle. The eliminated
// difference lands in the span's RecordsCombined.
//
//upa:dpsink
func (sc *StageContext) AddCombine(pre, post int64) {
	sc.recordsPreCombine.Add(pre)
	sc.recordsPostCombine.Add(post)
}

// snapshot copies the counters into span. Losing speculative attempts may
// keep counting after the snapshot; their updates are discarded along with
// their results.
func (sc *StageContext) snapshot(span *Span) {
	span.Records = sc.records.Load()
	span.ShuffledRecords = sc.shuffledRecords.Load()
	span.ShuffleBytes = sc.shuffleBytes.Load()
	span.ReduceOps = sc.reduceOps.Load()
	span.CacheHits = sc.cacheHits.Load()
	span.RecordsPreCombine = sc.recordsPreCombine.Load()
	span.RecordsPostCombine = sc.recordsPostCombine.Load()
	span.RecordsCombined = span.RecordsPreCombine - span.RecordsPostCombine
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
	// One retry budget per Run: stage retries and speculative launches all
	// draw from it, so a systemically sick release fails fast instead of
	// every stage burning its full attempt allowance.
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
			err := g.runStage(runCtx, i, &spans[i], slots, budget)
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

// retryable classifies a stage-task failure: chaos-injected faults and
// per-attempt deadline expiries (while the surrounding context is still
// live) are transient and re-run; everything else — application errors,
// cancellation of the job itself — is terminal.
func retryable(err error, live context.Context) bool {
	if errors.Is(err, chaos.ErrInjected) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded) && live.Err() == nil
}

// runStage executes one stage, occupying a slot per task.
func (g *Graph) runStage(ctx context.Context, i int, span *Span, slots chan struct{}, budget *chaos.Budget) error {
	s := g.stages[i]
	sc := &StageContext{}
	// Check cancellation before acquiring a slot: with both a free slot and
	// a cancelled context the select below would pick at random.
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.parts == 0 {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		defer func() { <-slots }()
		err := g.runPlain(ctx, s, span, sc, budget)
		sc.snapshot(span)
		return err
	}
	return g.runPartitioned(ctx, s, span, sc, slots, budget)
}

// runPlain runs a single-task stage under the retry policy: injected faults
// and attempt-deadline expiries are retried with backoff (drawing on the
// per-Run budget), everything else is terminal. The slot is held across
// retries — a retrying stage is still occupying its executor.
func (g *Graph) runPlain(ctx context.Context, s *stage, span *Span, sc *StageContext, budget *chaos.Budget) error {
	site := g.name + "/" + s.name
	maxAttempts := g.policy.Attempts()
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 1 {
			if !budget.Take() {
				return fmt.Errorf("%s: retry budget exhausted after %d attempts: %w", site, attempt-1, lastErr)
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
		if !retryable(err, ctx) {
			return err
		}
		if errors.Is(err, chaos.ErrInjected) {
			span.TaskFaults++
		}
		lastErr = err
	}
	return fmt.Errorf("%s: gave up after %d attempts: %w", site, maxAttempts, lastErr)
}

// attemptContext bounds one attempt with the policy's per-attempt deadline.
func (g *Graph) attemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := g.policy.TaskDeadline; d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// runPartitioned schedules the stage's partitions on the slot pool. With
// speculation enabled, partitions still running specAfter after the stage
// started get one duplicate attempt; the first attempt to finish a partition
// claims it and applies its commit, and the loser's result is discarded.
// Retryable failures (injected faults, attempt deadlines) re-launch the
// partition with backoff, drawing on the per-Run retry budget — the same
// budget speculative launches spend. Losing attempts may briefly outlive the
// stage — they observe the cancelled stage context, exit, and their sends
// land in the buffered results channel.
//
// Commit discipline: the claimed CAS elects at most one winner per
// partition, and the commit mutex guarantees no commit starts after the
// stage has finished — without it, a speculative twin could win the CAS
// after the stage already returned an error and mutate caller-visible state
// behind the scheduler's back.
func (g *Graph) runPartitioned(ctx context.Context, s *stage, span *Span, sc *StageContext, slots chan struct{}, budget *chaos.Budget) error {
	stageCtx, cancel := context.WithCancel(ctx)
	defer cancel() // unblocks stragglers once the stage has completed

	site := g.name + "/" + s.name
	maxAttempts := g.policy.Attempts()

	type outcome struct {
		part    int
		attempt int
		err     error
		won     bool
	}
	// Buffered for the maximum possible attempts (retries up to the attempt
	// allowance plus one speculative twin per partition) so late finishers
	// never block on send.
	results := make(chan outcome, s.parts*(maxAttempts+1))
	claimed := make([]atomic.Bool, s.parts)
	spawned := make([]atomic.Bool, s.parts) // speculative attempt launched?
	var attempts, speculative, retries, taskFaults, backoffNanos atomic.Int64

	// commitMu serializes winner commits against stage completion: finish
	// marks the stage aborted under the mutex, so once finish returns no
	// commit can start, and any commit already in flight has completed.
	var commitMu sync.Mutex
	aborted := false

	launch := func(part, attempt int) {
		go func() {
			if err := stageCtx.Err(); err != nil {
				results <- outcome{part: part, attempt: attempt, err: err}
				return
			}
			select {
			case slots <- struct{}{}:
			case <-stageCtx.Done():
				results <- outcome{part: part, attempt: attempt, err: stageCtx.Err()}
				return
			}
			defer func() { <-slots }()
			if claimed[part].Load() { // twin finished while we queued
				results <- outcome{part: part, attempt: attempt}
				return
			}
			attempts.Add(1)
			if g.inj.StageFault(site, part, attempt) {
				taskFaults.Add(1)
				results <- outcome{part: part, attempt: attempt,
					err: fmt.Errorf("%w: %s partition %d attempt %d", chaos.ErrInjected, site, part, attempt)}
				return
			}
			if d := g.inj.TaskDelay(site, part, attempt); d > 0 {
				if !chaos.Sleep(stageCtx, d) {
					results <- outcome{part: part, attempt: attempt, err: stageCtx.Err()}
					return
				}
			}
			attemptCtx, cancelAttempt := g.attemptContext(stageCtx)
			commit, err := s.partFn(attemptCtx, sc, part)
			cancelAttempt()
			if err != nil {
				if errors.Is(err, chaos.ErrInjected) {
					taskFaults.Add(1)
				}
				results <- outcome{part: part, attempt: attempt, err: err}
				return
			}
			if claimed[part].CompareAndSwap(false, true) {
				commitMu.Lock()
				if !aborted && commit != nil {
					commit()
				}
				commitMu.Unlock()
				results <- outcome{part: part, attempt: attempt, won: true}
				return
			}
			results <- outcome{part: part, attempt: attempt} // lost to the twin
		}()
	}

	// attemptSeq, outstanding, and lastErr are touched only by this scheduler
	// goroutine. attemptSeq numbers every launch of a partition (retries and
	// speculative twins alike) so chaos coordinates stay unique; outstanding
	// tracks in-flight attempts so a twin's failure is held until its sibling
	// also resolves.
	attemptSeq := make([]int, s.parts)
	outstanding := make([]int, s.parts)
	for p := 0; p < s.parts; p++ {
		attemptSeq[p] = 1
		outstanding[p] = 1
		launch(p, 1)
	}

	relaunch := func(part int) {
		retries.Add(1)
		attemptSeq[part]++
		attempt := attemptSeq[part]
		outstanding[part]++
		wait := g.policy.Backoff(site, part, attempt-1)
		if wait > 0 {
			backoffNanos.Add(int64(wait))
			go func() {
				if !chaos.Sleep(stageCtx, wait) {
					results <- outcome{part: part, attempt: attempt, err: stageCtx.Err()}
					return
				}
				launch(part, attempt)
			}()
			return
		}
		launch(part, attempt)
	}

	var specC <-chan time.Time
	if g.specAfter > 0 {
		specTimer := time.NewTimer(g.specAfter)
		defer specTimer.Stop()
		specC = specTimer.C
	}

	finish := func(err error) error {
		commitMu.Lock()
		aborted = true
		commitMu.Unlock()
		sc.snapshot(span)
		span.Attempts = int(attempts.Load())
		span.Speculative = int(speculative.Load())
		span.Retries = retries.Load()
		span.TaskFaults = taskFaults.Load()
		span.BackoffNanos = backoffNanos.Load()
		return err
	}
	won := 0
	for won < s.parts {
		select {
		case r := <-results:
			outstanding[r.part]--
			switch {
			case r.won:
				won++
			case claimed[r.part].Load() || r.err == nil:
				// Losing twin of an already-won partition: ignore.
			case outstanding[r.part] > 0:
				// A sibling attempt of the same partition is still in
				// flight; let it resolve the partition before reacting.
			case retryable(r.err, stageCtx) && attemptSeq[r.part] < maxAttempts:
				if !budget.Take() {
					return finish(fmt.Errorf("partition %d: retry budget exhausted after attempt %d: %w",
						r.part, attemptSeq[r.part], r.err))
				}
				relaunch(r.part)
			default:
				// Terminal: an application error, a cancelled job, or a
				// partition out of attempts.
				return finish(fmt.Errorf("partition %d (attempt %d of %d): %w",
					r.part, attemptSeq[r.part], maxAttempts, r.err))
			}
		case <-specC:
			for p := 0; p < s.parts; p++ {
				if claimed[p].Load() || !spawned[p].CompareAndSwap(false, true) {
					continue
				}
				// Speculative launches spend the shared retry budget too; a
				// job out of budget stops hedging.
				if !budget.Take() {
					spawned[p].Store(false)
					break
				}
				speculative.Add(1)
				attemptSeq[p]++
				outstanding[p]++
				launch(p, attemptSeq[p])
			}
		case <-stageCtx.Done():
			return finish(stageCtx.Err())
		}
	}
	return finish(nil)
}

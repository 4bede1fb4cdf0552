// Package mapreduce is the Spark substitute underneath UPA: an in-memory,
// multi-goroutine MapReduce/RDD engine with partitioned generic datasets,
// lazy narrow transformations, hash shuffles for wide transformations,
// a worker-pool scheduler with fault injection and lineage-based retry,
// and metered shuffle/cache behaviour.
//
// The engine exists because UPA's correctness and performance arguments rest
// on exactly two properties of big-data operators — commutativity and
// associativity — and on the cost asymmetry between local computation,
// shuffles, and cache hits. All three are reproduced and metered here.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"upa/internal/chaos"
)

// Engine schedules partition-level tasks over a bounded worker pool and
// accounts for shuffles, reduce operations, and cache traffic.
type Engine struct {
	workers int
	policy  chaos.RetryPolicy

	metrics Metrics

	// inj is the seeded chaos injector deciding which task attempts fail,
	// straggle, or lose their worker slot, fixed when the engine is built.
	// Nil-safe: a nil injector injects nothing.
	inj *chaos.Injector

	// spill is the memory-budget accountant and temp-file allocator behind
	// out-of-core execution: materializations past the budget live in
	// deterministic spill files instead of RAM (see spillstore.go).
	spill *spillStore
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the number of concurrent task slots. Values below one
// fall back to one.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.workers = n
	}
}

// WithRetryPolicy sets the full retry contract: attempts per task,
// exponential backoff with seeded jitter, per-attempt deadline, and the
// per-job retry budget.
func WithRetryPolicy(p chaos.RetryPolicy) Option {
	return func(e *Engine) { e.policy = p }
}

// WithChaos arms the engine with a seeded fault injector. Nil disarms.
func WithChaos(inj *chaos.Injector) Option {
	return func(e *Engine) { e.inj = inj }
}

// WithMemoryBudget caps the estimated bytes of materialized partitions,
// shuffle buckets, and sorted runs the engine retains in memory. Past the
// budget, materializations spill to deterministic length-prefixed temp
// files and are streamed back on read — capacity grows to disk size while
// every released value stays byte-identical to the in-memory run. Zero
// spills every materialization; negative (the default) disables spilling.
// Engines that may spill should be Closed to remove their temp files.
func WithMemoryBudget(bytes int64) Option {
	return func(e *Engine) { e.spill.budget = bytes }
}

// NewEngine builds an engine. By default it uses GOMAXPROCS workers and
// retries each task up to three times with no backoff, deadline, or budget
// (chaos.DefaultRetryPolicy).
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		workers: runtime.GOMAXPROCS(0),
		policy:  chaos.DefaultRetryPolicy(),
	}
	e.spill = &spillStore{metrics: &e.metrics, budget: -1}
	for _, opt := range opts {
		opt(e)
	}
	// The spill store's filesystem is always the chaos wrapper; with no
	// injector it is pure passthrough to the OS.
	e.spill.fs = newChaosFS(osFS{}, e.inj)
	return e
}

// MemoryBudget reports the configured in-memory materialization budget in
// bytes (negative: unlimited, spilling disabled).
func (e *Engine) MemoryBudget() int64 { return e.spill.budget }

// Close releases the engine's spill directory and every temp file in it,
// waiting for in-flight spill I/O to finish first. Idempotent; engines that
// never spilled touch no disk and Close is a no-op for them. After Close
// the engine must not run further jobs that spill.
func (e *Engine) Close() error { return e.spill.close() }

// SpillDir reports the engine's spill directory: empty until the first
// spill and after Close. Tests and operators use it to audit temp-file
// hygiene (no orphaned .tmp files while running, nothing left after Close).
func (e *Engine) SpillDir() string {
	e.spill.mu.Lock()
	defer e.spill.mu.Unlock()
	return e.spill.dir
}

// RetryPolicy returns the engine's retry contract, so sibling schedulers
// (the jobgraph) can share it.
func (e *Engine) RetryPolicy() chaos.RetryPolicy { return e.policy }

// Chaos returns the engine's fault injector, or nil when disarmed.
func (e *Engine) Chaos() *chaos.Injector { return e.inj }

// Workers reports the configured worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// AccountShuffle records one shuffle round moving records rows between
// partitions. Components that physically move data outside the built-in wide
// transformations (e.g. UPA's RANGE ENFORCER partitioning, §IV-B) use it so
// the overhead accounting matches a real cluster's.
func (e *Engine) AccountShuffle(records int) {
	e.metrics.ShuffleRounds.Add(1)
	e.metrics.RecordsShuffled.Add(int64(records))
}

// AccountReduceOps records n reduce operations performed outside the
// built-in actions (e.g. UPA's in-memory prefix/suffix combines), keeping
// the operation accounting comparable between vanilla and UPA runs.
func (e *Engine) AccountReduceOps(n int64) {
	e.metrics.ReduceOps.Add(n)
}

// AccountCache records hits reuses of a memoized reduction and misses
// computations of one. UPA computes R(M(S')) once per release (one miss) and
// combines it into each of the n sampled neighbours (n hits, §VI-E); the
// counts feed the Figure 4(b) cache-hit rate.
func (e *Engine) AccountCache(hits, misses int64) {
	e.metrics.CacheHits.Add(hits)
	e.metrics.CacheMisses.Add(misses)
}

// AccountBatches records a vectorized pipeline processing batches windows
// covering records rows, so columnar execution is as visible in the metrics
// as the row path's RecordsMapped.
func (e *Engine) AccountBatches(batches, records int64) {
	e.metrics.BatchesProcessed.Add(batches)
	e.metrics.RecordsBatched.Add(records)
}

// ErrTaskFailed is returned when a task or shuffle keeps failing after all
// retry attempts, or its job's retry budget runs out. It is
// chaos.ErrExhausted, the terminal marker every retry loop shares.
var ErrTaskFailed = chaos.ErrExhausted

// firstErrSlot retains the first error reported by any worker. A plain
// mutex-guarded slot, deliberately not an atomic.Value: workers racing to
// store different concrete error types (context.Canceled vs a wrapped
// ErrTaskFailed) would panic atomic.Value's consistent-typing check.
type firstErrSlot struct {
	mu  sync.Mutex
	err error
}

// set records err if no earlier error is held. A nil err is ignored.
func (s *firstErrSlot) set(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// get returns the held error, or nil.
func (s *firstErrSlot) get() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// runTasks executes task(i) for i in [0, n) on the worker pool. Every task
// attempt may be failed, delayed, or slot-starved by the chaos injector;
// retryable failures are retried from lineage under the engine's RetryPolicy
// (attempts, backoff, per-attempt deadline, per-job retry budget). The first
// terminal error aborts the remaining tasks and is returned. Cancelling ctx
// stops workers from claiming new tasks (and from retrying failed attempts)
// and returns the context's error; a cancelled job therefore stops
// scheduling promptly instead of running to completion.
//
// site names the job for chaos decisions and error messages — dataset
// lineage names like "source.map.reduceByKey:shuffle" — so injection is a
// pure function of (seed, site, task, attempt), never of scheduling order.
func (e *Engine) runTasks(ctx context.Context, site string, n int, task func(ctx context.Context, i int) error) error {
	if n == 0 {
		return nil
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	budget := e.policy.NewBudget()

	var (
		next     atomic.Int64
		firstErr firstErrSlot
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		// Slot loss: the worker never joins the pool and its share of tasks
		// redistributes to the survivors. Slot 0 is immune (chaos guarantees
		// it), so the job always makes progress.
		if e.inj.SlotLost(site, w) {
			e.metrics.SlotsLost.Add(1)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					firstErr.set(err)
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n || firstErr.get() != nil {
					return
				}
				if err := e.runOneTask(ctx, site, i, budget, task); err != nil {
					firstErr.set(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr.get()
}

func (e *Engine) runOneTask(ctx context.Context, site string, i int, budget *chaos.Budget, task func(ctx context.Context, i int) error) error {
	maxAttempts := e.policy.Attempts()
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err // cancelled between attempts: stop retrying
		}
		if attempt > 1 {
			// Retries draw on the shared per-job budget: once a sick job has
			// burned through it, fail fast instead of letting every task
			// thrash through its full attempt allowance.
			if !budget.Take() {
				return fmt.Errorf("%w: %s: task %d: retry budget exhausted after %d attempts: %w",
					ErrTaskFailed, site, i, attempt-1, lastErr)
			}
			e.metrics.TaskRetries.Add(1)
			if d := e.policy.Backoff(site, i, attempt-1); d > 0 {
				e.metrics.BackoffNanos.Add(int64(d))
				if !chaos.Sleep(ctx, d) {
					return ctx.Err()
				}
			}
		}
		e.metrics.TaskAttempts.Add(1)
		if e.inj.TaskFault(site, i, attempt) {
			e.metrics.TaskFaults.Add(1)
			lastErr = fmt.Errorf("%w: %s: task %d attempt %d", chaos.ErrInjected, site, i, attempt)
			continue // retry: recompute from lineage
		}
		if d := e.inj.TaskDelay(site, i, attempt); d > 0 {
			e.metrics.StragglersInjected.Add(1)
			if !chaos.Sleep(ctx, d) {
				return ctx.Err()
			}
		}
		err := e.runAttempt(ctx, i, task)
		if err == nil {
			e.metrics.TasksRun.Add(1)
			return nil
		}
		switch {
		case chaos.Transient(err, ctx):
			if errors.Is(err, chaos.ErrInjected) {
				e.metrics.TaskFaults.Add(1)
			} else {
				// The attempt's own deadline fired while the job is still
				// live: treat the straggling attempt as crashed and
				// recompute.
				e.metrics.DeadlinesExceeded.Add(1)
			}
		case errors.Is(err, ErrSpillCorrupt) && !errors.Is(err, ErrTaskFailed):
			// A spill file failed its checksums and the store's own
			// recovery (retry + lineage recompute) could not clear it
			// within its attempts; a fresh task attempt re-runs the read
			// and recovery from the top.
		default:
			// An application error, a job cancellation, or a nested job
			// (e.g. a shuffle this task depends on) that already exhausted
			// its own attempts: re-running that would double-run its tasks.
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %s: task %d gave up after %d attempts: %w",
		ErrTaskFailed, site, i, maxAttempts, lastErr)
}

// runAttempt runs one task attempt under the policy's per-attempt deadline.
func (e *Engine) runAttempt(ctx context.Context, i int, task func(ctx context.Context, i int) error) error {
	if d := e.policy.TaskDeadline; d > 0 {
		attemptCtx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		ctx = attemptCtx
	}
	return task(ctx, i)
}

// Metrics exposes the engine's atomic counters. Snapshot with
// MetricsSnapshot for a consistent read.
type Metrics struct {
	TaskAttempts atomic.Int64
	TasksRun     atomic.Int64
	TaskFaults   atomic.Int64
	// TaskRetries counts re-attempts after a retryable failure (injected
	// fault or attempt deadline); ShuffleRetries counts re-fetches of a
	// shuffle materialization. BackoffNanos accumulates the time spent
	// waiting between attempts, DeadlinesExceeded the attempts cancelled by
	// the policy's per-attempt deadline, StragglersInjected and SlotsLost
	// the chaos injector's latency and worker-loss events.
	TaskRetries        atomic.Int64
	ShuffleRetries     atomic.Int64
	BackoffNanos       atomic.Int64
	DeadlinesExceeded  atomic.Int64
	StragglersInjected atomic.Int64
	SlotsLost          atomic.Int64
	RecordsMapped      atomic.Int64
	ReduceOps          atomic.Int64
	ShuffleRounds      atomic.Int64
	RecordsShuffled    atomic.Int64
	// RecordsPreCombine counts records entering a map-side combiner — what a
	// combine-less engine would have shuffled. RecordsPostCombine counts the
	// combined records that actually reached the wire, and
	// RecordsCombinedMapSide their difference: records the combiner
	// eliminated before the shuffle.
	RecordsPreCombine      atomic.Int64
	RecordsPostCombine     atomic.Int64
	RecordsCombinedMapSide atomic.Int64
	CacheHits              atomic.Int64
	CacheMisses            atomic.Int64
	BroadcastsSent         atomic.Int64
	BroadcastRecords       atomic.Int64
	// SpilledBytes counts bytes written to spill files when a
	// materialization exceeded the memory budget, SpillFiles the files
	// written, and SpillReads the file reads that streamed spilled
	// partitions back. All zero on an engine without a budget.
	SpilledBytes atomic.Int64
	SpillFiles   atomic.Int64
	SpillReads   atomic.Int64
	// RecordsBatched counts rows that flowed through a vectorized columnar
	// pipeline (the SQL layer's fused batch operators) and BatchesProcessed
	// the batches they were windowed into — the columnar analogue of
	// RecordsMapped, so row-vs-columnar experiments can show where the data
	// actually went.
	RecordsBatched   atomic.Int64
	BatchesProcessed atomic.Int64
	// Storage-fault robustness counters. SpillCorruptionsDetected counts
	// spill reads (and post-write verifications) that failed the format's
	// checksums or record counts — every one is corruption caught instead
	// of decoded into silently wrong records. SpillRecomputes counts
	// partitions re-materialized from lineage after such a detection,
	// SpillWriteRetries the spill write attempts retried after a failure,
	// and SpillFallbacksInMemory the partitions retained in memory because
	// the disk refused them past the retry policy.
	SpillCorruptionsDetected atomic.Int64
	SpillRecomputes          atomic.Int64
	SpillWriteRetries        atomic.Int64
	SpillFallbacksInMemory   atomic.Int64
}

// MetricsSnapshot is a plain-value copy of Metrics.
type MetricsSnapshot struct {
	TaskAttempts             int64
	TasksRun                 int64
	TaskFaults               int64
	TaskRetries              int64
	ShuffleRetries           int64
	BackoffNanos             int64
	DeadlinesExceeded        int64
	StragglersInjected       int64
	SlotsLost                int64
	RecordsMapped            int64
	ReduceOps                int64
	ShuffleRounds            int64
	RecordsShuffled          int64
	RecordsPreCombine        int64
	RecordsPostCombine       int64
	RecordsCombinedMapSide   int64
	CacheHits                int64
	CacheMisses              int64
	BroadcastsSent           int64
	BroadcastRecords         int64
	RecordsBatched           int64
	BatchesProcessed         int64
	SpilledBytes             int64
	SpillFiles               int64
	SpillReads               int64
	SpillCorruptionsDetected int64
	SpillRecomputes          int64
	SpillWriteRetries        int64
	SpillFallbacksInMemory   int64
}

// Metrics returns a snapshot of the engine counters.
func (e *Engine) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		TaskAttempts:             e.metrics.TaskAttempts.Load(),
		TasksRun:                 e.metrics.TasksRun.Load(),
		TaskFaults:               e.metrics.TaskFaults.Load(),
		TaskRetries:              e.metrics.TaskRetries.Load(),
		ShuffleRetries:           e.metrics.ShuffleRetries.Load(),
		BackoffNanos:             e.metrics.BackoffNanos.Load(),
		DeadlinesExceeded:        e.metrics.DeadlinesExceeded.Load(),
		StragglersInjected:       e.metrics.StragglersInjected.Load(),
		SlotsLost:                e.metrics.SlotsLost.Load(),
		RecordsMapped:            e.metrics.RecordsMapped.Load(),
		ReduceOps:                e.metrics.ReduceOps.Load(),
		ShuffleRounds:            e.metrics.ShuffleRounds.Load(),
		RecordsShuffled:          e.metrics.RecordsShuffled.Load(),
		RecordsPreCombine:        e.metrics.RecordsPreCombine.Load(),
		RecordsPostCombine:       e.metrics.RecordsPostCombine.Load(),
		RecordsCombinedMapSide:   e.metrics.RecordsCombinedMapSide.Load(),
		CacheHits:                e.metrics.CacheHits.Load(),
		CacheMisses:              e.metrics.CacheMisses.Load(),
		BroadcastsSent:           e.metrics.BroadcastsSent.Load(),
		BroadcastRecords:         e.metrics.BroadcastRecords.Load(),
		RecordsBatched:           e.metrics.RecordsBatched.Load(),
		BatchesProcessed:         e.metrics.BatchesProcessed.Load(),
		SpilledBytes:             e.metrics.SpilledBytes.Load(),
		SpillFiles:               e.metrics.SpillFiles.Load(),
		SpillReads:               e.metrics.SpillReads.Load(),
		SpillCorruptionsDetected: e.metrics.SpillCorruptionsDetected.Load(),
		SpillRecomputes:          e.metrics.SpillRecomputes.Load(),
		SpillWriteRetries:        e.metrics.SpillWriteRetries.Load(),
		SpillFallbacksInMemory:   e.metrics.SpillFallbacksInMemory.Load(),
	}
}

// CacheHitRate returns hits/(hits+misses), or 0 with no traffic.
func (s MetricsSnapshot) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Sub returns the per-field difference s - prev, for metering one phase.
func (s MetricsSnapshot) Sub(prev MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		TaskAttempts:             s.TaskAttempts - prev.TaskAttempts,
		TasksRun:                 s.TasksRun - prev.TasksRun,
		TaskFaults:               s.TaskFaults - prev.TaskFaults,
		TaskRetries:              s.TaskRetries - prev.TaskRetries,
		ShuffleRetries:           s.ShuffleRetries - prev.ShuffleRetries,
		BackoffNanos:             s.BackoffNanos - prev.BackoffNanos,
		DeadlinesExceeded:        s.DeadlinesExceeded - prev.DeadlinesExceeded,
		StragglersInjected:       s.StragglersInjected - prev.StragglersInjected,
		SlotsLost:                s.SlotsLost - prev.SlotsLost,
		RecordsMapped:            s.RecordsMapped - prev.RecordsMapped,
		ReduceOps:                s.ReduceOps - prev.ReduceOps,
		ShuffleRounds:            s.ShuffleRounds - prev.ShuffleRounds,
		RecordsShuffled:          s.RecordsShuffled - prev.RecordsShuffled,
		RecordsPreCombine:        s.RecordsPreCombine - prev.RecordsPreCombine,
		RecordsPostCombine:       s.RecordsPostCombine - prev.RecordsPostCombine,
		RecordsCombinedMapSide:   s.RecordsCombinedMapSide - prev.RecordsCombinedMapSide,
		CacheHits:                s.CacheHits - prev.CacheHits,
		CacheMisses:              s.CacheMisses - prev.CacheMisses,
		BroadcastsSent:           s.BroadcastsSent - prev.BroadcastsSent,
		BroadcastRecords:         s.BroadcastRecords - prev.BroadcastRecords,
		RecordsBatched:           s.RecordsBatched - prev.RecordsBatched,
		BatchesProcessed:         s.BatchesProcessed - prev.BatchesProcessed,
		SpilledBytes:             s.SpilledBytes - prev.SpilledBytes,
		SpillFiles:               s.SpillFiles - prev.SpillFiles,
		SpillReads:               s.SpillReads - prev.SpillReads,
		SpillCorruptionsDetected: s.SpillCorruptionsDetected - prev.SpillCorruptionsDetected,
		SpillRecomputes:          s.SpillRecomputes - prev.SpillRecomputes,
		SpillWriteRetries:        s.SpillWriteRetries - prev.SpillWriteRetries,
		SpillFallbacksInMemory:   s.SpillFallbacksInMemory - prev.SpillFallbacksInMemory,
	}
}

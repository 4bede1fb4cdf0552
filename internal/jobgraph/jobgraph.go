// Package jobgraph is the release planner underneath UPA's core: a
// declarative DAG of named stages scheduled topologically over a shared slot
// pool. Independent stages run concurrently (pipelining — the per-neighbour
// delta combines overlap the bulk R(M(S')) reduction), partitioned stages
// speculatively re-execute straggler partitions, and every stage leaves a
// Span record (start/end, task attempts, records, shuffle bytes, cache hits)
// that downstream layers price into simulated cluster time or report over
// HTTP.
//
// The package is substrate-agnostic: it knows nothing about the mapreduce
// engine beyond a slot count, so any future executor (multi-process,
// remote) can schedule through the same graphs.
package jobgraph

import (
	"context"
	"errors"
	"fmt"
	"time"

	"upa/internal/chaos"
)

// ErrCycle is returned by Validate when the stage dependencies contain a
// cycle.
var ErrCycle = errors.New("jobgraph: dependency cycle")

// Span is the per-stage execution record of one Graph.Run. Stages that never
// started (because an earlier stage failed or the context was cancelled)
// keep zero Start/End times.
type Span struct {
	// Stage is the stage name; Deps its declared dependencies.
	Stage string   `json:"stage"`
	Deps  []string `json:"deps"`
	// Start and End bracket the stage's execution, including any time its
	// tasks spent waiting for a free slot.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Attempts counts task executions (1 for a plain stage; partitions plus
	// speculative re-executions for a partitioned stage). Speculative counts
	// the duplicate attempts launched against straggler partitions.
	Attempts    int `json:"attempts"`
	Speculative int `json:"speculative"`
	// Retries counts re-executions after retryable failures (injected faults,
	// attempt deadlines), TaskFaults the chaos-injected failures absorbed by
	// the stage, and BackoffNanos the time spent waiting between attempts —
	// the jobgraph half of the engine's retry accounting, priced by the
	// cluster cost model.
	Retries      int64 `json:"retries"`
	TaskFaults   int64 `json:"taskFaults"`
	BackoffNanos int64 `json:"backoffNanos"`
	// Records, ShuffledRecords, ShuffleBytes, ReduceOps and CacheHits are
	// reported by the stage body through its StageContext; they feed the
	// cluster cost model's per-stage pricing.
	Records         int64 `json:"records"`
	ShuffledRecords int64 `json:"shuffledRecords"`
	ShuffleBytes    int64 `json:"shuffleBytes"`
	ReduceOps       int64 `json:"reduceOps"`
	CacheHits       int64 `json:"cacheHits"`
	// RecordsPreCombine and RecordsPostCombine bracket the stage's map-side
	// combines: records entering the combiners versus combined records that
	// actually shuffled. RecordsCombined is their difference — records the
	// combine eliminated before the wire. Stages reporting these should not
	// double-report the combine folds through AddReduceOps; the cost model
	// charges the combine CPU from RecordsPreCombine.
	RecordsPreCombine  int64 `json:"recordsPreCombine"`
	RecordsPostCombine int64 `json:"recordsPostCombine"`
	RecordsCombined    int64 `json:"recordsCombined"`
	// Err holds the stage's failure, if any.
	Err string `json:"error,omitempty"`
}

// Duration is the stage's wall-clock time (zero if it never started).
func (s Span) Duration() time.Duration {
	if s.Start.IsZero() || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// StageFunc is the body of a plain (single-task) stage. The context is
// cancelled when the graph is aborted; the StageContext collects the stage's
// span counters.
type StageFunc func(ctx context.Context, sc *StageContext) error

// PartFunc computes one partition of a partitioned stage. It must confine
// its side effects to the returned commit closure (nil when there is nothing
// to publish): under speculation two attempts of the same partition may run
// concurrently, and the scheduler applies exactly one winner's commit.
type PartFunc func(ctx context.Context, sc *StageContext, part int) (commit func(), err error)

// stage is one declared node of the graph.
type stage struct {
	name   string
	deps   []string
	fn     StageFunc
	parts  int      // 0 for plain stages
	partFn PartFunc // set when parts > 0
}

// Graph is a declarative DAG of named stages. Build it with Stage and
// Partitioned, then execute with Run. A Graph is single-use: Run may be
// called once.
type Graph struct {
	name      string
	slots     int
	specAfter time.Duration
	policy    chaos.RetryPolicy
	inj       *chaos.Injector
	now       func() time.Time
	stages    []*stage
	index     map[string]int
	buildErr  error
}

// Option configures a Graph.
type Option func(*Graph)

// WithSlots bounds how many stage tasks run concurrently across the whole
// graph — the shared worker pool. Values below one fall back to one.
func WithSlots(n int) Option {
	return func(g *Graph) {
		if n < 1 {
			n = 1
		}
		g.slots = n
	}
}

// WithSpeculation enables speculative re-execution for partitioned stages:
// any partition still running `after` the stage started gets one duplicate
// attempt, and the first attempt to finish wins (its commit is applied; the
// loser's is discarded). Partition functions must therefore be pure up to
// their commit closure. A non-positive duration disables speculation.
func WithSpeculation(after time.Duration) Option {
	return func(g *Graph) { g.specAfter = after }
}

// WithRetryPolicy sets the stage-level retry contract: attempts per stage
// task, exponential backoff with seeded jitter, per-attempt deadline, and a
// per-Run retry budget shared by retries and speculative launches. Callers
// normally pass the engine's own policy so both schedulers behave alike.
func WithRetryPolicy(p chaos.RetryPolicy) Option {
	return func(g *Graph) { g.policy = p }
}

// WithChaos arms the graph with a seeded fault injector: stage tasks may
// fail or straggle before running, exercising the retry and speculation
// paths deterministically. Nil disarms.
func WithChaos(inj *chaos.Injector) Option {
	return func(g *Graph) { g.inj = inj }
}

// WithClock injects the clock that stamps span Start/End times. Simulations
// and tests pass a deterministic clock so span timelines are reproducible
// byte for byte; nil keeps the default wall clock.
func WithClock(now func() time.Time) Option {
	return func(g *Graph) {
		if now != nil {
			g.now = now
		}
	}
}

// New builds an empty graph. The default slot count is 1; callers normally
// pass WithSlots(engine.Workers()).
func New(name string, opts ...Option) *Graph {
	//upa:allow(seededdeterminism) default span clock; deterministic runs override it via WithClock
	g := &Graph{name: name, slots: 1, policy: chaos.DefaultRetryPolicy(), now: time.Now, index: make(map[string]int)}
	for _, opt := range opts {
		opt(g)
	}
	return g
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// setErr records the first construction error; Validate and Run surface it.
func (g *Graph) setErr(err error) {
	if g.buildErr == nil {
		g.buildErr = err
	}
}

func (g *Graph) add(s *stage) *Graph {
	if s.name == "" {
		g.setErr(fmt.Errorf("jobgraph: %s: stage with empty name", g.name))
		return g
	}
	if _, dup := g.index[s.name]; dup {
		g.setErr(fmt.Errorf("jobgraph: %s: duplicate stage %q", g.name, s.name))
		return g
	}
	g.index[s.name] = len(g.stages)
	g.stages = append(g.stages, s)
	return g
}

// Stage declares a plain single-task stage that runs fn once after every
// stage named in deps has completed. Construction errors (empty or duplicate
// names, nil functions) are deferred to Validate/Run so call sites chain
// cleanly.
func (g *Graph) Stage(name string, fn StageFunc, deps ...string) *Graph {
	if fn == nil {
		g.setErr(fmt.Errorf("jobgraph: %s: stage %q has nil function", g.name, name))
		return g
	}
	return g.add(&stage{name: name, deps: deps, fn: fn})
}

// Partitioned declares a stage of parts independent tasks scheduled on the
// shared slot pool. fn computes one partition and returns a commit closure
// (possibly nil) that publishes the partition's result; the scheduler
// applies exactly one commit per partition even when speculation launches
// duplicate attempts.
func (g *Graph) Partitioned(name string, parts int, fn PartFunc, deps ...string) *Graph {
	if fn == nil {
		g.setErr(fmt.Errorf("jobgraph: %s: stage %q has nil function", g.name, name))
		return g
	}
	if parts < 1 {
		g.setErr(fmt.Errorf("jobgraph: %s: stage %q has %d partitions, need >= 1", g.name, name, parts))
		return g
	}
	return g.add(&stage{name: name, deps: deps, parts: parts, partFn: fn})
}

// Validate checks the graph: construction errors, unknown dependencies, and
// dependency cycles (Kahn's algorithm).
func (g *Graph) Validate() error {
	if g.buildErr != nil {
		return g.buildErr
	}
	if len(g.stages) == 0 {
		return fmt.Errorf("jobgraph: %s: empty graph", g.name)
	}
	indegree := make([]int, len(g.stages))
	dependents := make([][]int, len(g.stages))
	for i, s := range g.stages {
		for _, d := range s.deps {
			j, ok := g.index[d]
			if !ok {
				return fmt.Errorf("jobgraph: %s: stage %q depends on unknown stage %q", g.name, s.name, d)
			}
			if j == i {
				return fmt.Errorf("%w: %s: stage %q depends on itself", ErrCycle, g.name, s.name)
			}
			indegree[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	ready := make([]int, 0, len(g.stages))
	for i, deg := range indegree {
		if deg == 0 {
			ready = append(ready, i)
		}
	}
	seen := 0
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		seen++
		for _, dep := range dependents[i] {
			indegree[dep]--
			if indegree[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if seen != len(g.stages) {
		return fmt.Errorf("%w: %s: %d of %d stages unreachable from the roots",
			ErrCycle, g.name, len(g.stages)-seen, len(g.stages))
	}
	return nil
}

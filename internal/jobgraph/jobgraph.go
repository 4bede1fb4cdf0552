// Package jobgraph is the release planner underneath UPA's core: a
// declarative DAG of named stages scheduled topologically over a shared slot
// pool. Each stage is one task; independent stages run concurrently
// (pipelining — the per-neighbour delta combines overlap the bulk R(M(S'))
// reduction), a stage that fails transiently is retried under the retry
// policy, and every stage leaves a Span record (start/end, task attempts,
// records, shuffle bytes, cache hits) that downstream layers price into
// simulated cluster time or report over HTTP. The engine retries the tasks
// of the jobs a stage starts; the graph retries whole stages.
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
	// Start and End bracket the stage's execution, including any time it
	// spent waiting for a free slot.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Attempts counts executions of the stage's task: 1 plus its Retries.
	Attempts int `json:"attempts"`
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

// StageFunc is the body of a stage: one task. The context is cancelled when
// the graph is aborted; the StageContext collects the stage's span counters.
type StageFunc func(ctx context.Context, sc *StageContext) error

// stage is one declared node of the graph.
type stage struct {
	name string
	deps []string
	fn   StageFunc
}

// Graph is a declarative DAG of named stages. Build it with Stage, then
// execute with Run. A Graph is single-use: Run may be called once.
type Graph struct {
	name     string
	slots    int
	policy   chaos.RetryPolicy
	inj      *chaos.Injector
	now      func() time.Time
	stages   []*stage
	index    map[string]int
	buildErr error
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

// WithRetryPolicy sets the stage-level retry contract: attempts per stage,
// exponential backoff with seeded jitter, per-attempt deadline, and a
// per-Run retry budget shared by every stage. Callers normally pass the
// engine's own policy so both schedulers behave alike.
func WithRetryPolicy(p chaos.RetryPolicy) Option {
	return func(g *Graph) { g.policy = p }
}

// WithChaos arms the graph with a seeded fault injector: stages may fail or
// straggle before running, exercising the retry path deterministically. Nil
// disarms.
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

// Stage declares a stage that runs fn once after every stage named in deps
// has completed. Construction errors (empty or duplicate names, nil
// functions) are deferred to Validate/Run so call sites chain cleanly.
func (g *Graph) Stage(name string, fn StageFunc, deps ...string) *Graph {
	switch _, dup := g.index[name]; {
	case fn == nil:
		g.setErr(fmt.Errorf("jobgraph: %s: stage %q has nil function", g.name, name))
	case name == "":
		g.setErr(fmt.Errorf("jobgraph: %s: stage with empty name", g.name))
	case dup:
		g.setErr(fmt.Errorf("jobgraph: %s: duplicate stage %q", g.name, name))
	default:
		g.index[name] = len(g.stages)
		g.stages = append(g.stages, &stage{name: name, deps: deps, fn: fn})
	}
	return g
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

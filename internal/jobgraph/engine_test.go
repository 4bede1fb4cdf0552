package jobgraph_test

import (
	"context"
	"errors"
	"testing"

	"upa/internal/chaos"
	"upa/internal/jobgraph"
	"upa/internal/mapreduce"
)

// TestExhaustedEngineJobNotRetriedByStage: an engine job that gave up
// returns an error carrying both the terminal marker and the injected fault
// that exhausted it. The stage around it must treat that as terminal — the
// engine already re-ran the job's tasks as often as the policy allows — so
// the stage body runs once, its span records no retry, and Run's error still
// wraps mapreduce.ErrTaskFailed.
func TestExhaustedEngineJobNotRetriedByStage(t *testing.T) {
	policy := chaos.RetryPolicy{MaxAttempts: 2}
	sum := func(a, b int) int { return a + b }
	reduceJob := func(ctx context.Context, eng *mapreduce.Engine) error {
		ds, err := mapreduce.FromSlice(eng, []int{1, 2, 3, 4}, 2)
		if err != nil {
			return err
		}
		_, err = mapreduce.ReduceCtx(ctx, ds, sum)
		return err
	}
	// Probe for a seed at which the stage's first attempt is not faulted
	// but the engine job inside it exhausts its attempts. Injection is a
	// pure function of the seed and the decision's coordinates, so the
	// probe predicts the graph's run exactly.
	var faults chaos.Policy
	for seed := uint64(1); seed < 5000 && faults.Seed == 0; seed++ {
		p := chaos.Policy{Seed: seed, TaskFaultRate: 0.6}
		if chaos.New(p).StageFault("g/work", 0, 1) {
			continue
		}
		eng := mapreduce.NewEngine(mapreduce.WithWorkers(2), mapreduce.WithRetryPolicy(policy), mapreduce.WithChaos(chaos.New(p)))
		if err := reduceJob(context.Background(), eng); errors.Is(err, mapreduce.ErrTaskFailed) {
			faults = p
		}
	}
	if faults.Seed == 0 {
		t.Fatal("no seed exhausts the engine job while sparing the stage's first attempt")
	}

	inj := chaos.New(faults)
	eng := mapreduce.NewEngine(mapreduce.WithWorkers(2), mapreduce.WithRetryPolicy(policy), mapreduce.WithChaos(inj))
	ran := 0
	g := jobgraph.New("g", jobgraph.WithRetryPolicy(policy), jobgraph.WithChaos(inj)).
		Stage("work", func(ctx context.Context, _ *jobgraph.StageContext) error {
			ran++
			return reduceJob(ctx, eng)
		})
	spans, err := g.Run(context.Background())
	if !errors.Is(err, mapreduce.ErrTaskFailed) {
		t.Fatalf("Run() = %v, want the engine's ErrTaskFailed", err)
	}
	if ran != 1 {
		t.Errorf("stage body ran %d times after the engine gave up, want 1 (seed %d)", ran, faults.Seed)
	}
	if spans[0].Retries != 0 {
		t.Errorf("span Retries = %d, want 0 (seed %d)", spans[0].Retries, faults.Seed)
	}
}

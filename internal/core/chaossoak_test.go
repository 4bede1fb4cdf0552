package core

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"upa/internal/chaos"
	"upa/internal/mapreduce"
)

// soakSeeds returns the chaos seeds the soak test sweeps. Default 1..20;
// UPA_CHAOS_SEEDS overrides with a comma-separated list so CI can pin its
// own fixed set and failures can be replayed one seed at a time.
func soakSeeds(t *testing.T) []uint64 {
	env := os.Getenv("UPA_CHAOS_SEEDS")
	if env == "" {
		seeds := make([]uint64, 20)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		return seeds
	}
	var seeds []uint64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("UPA_CHAOS_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		t.Fatal("UPA_CHAOS_SEEDS set but empty")
	}
	return seeds
}

// soakRetryPolicy gives every task six attempts: at the soak's fault rates
// the probability of one task drawing six consecutive seeded faults is
// ~1e-6 per task, so the sweep is deterministic-in-practice while still
// exercising backoff, jitter, and both schedulers' retry paths.
func soakRetryPolicy() chaos.RetryPolicy {
	return chaos.RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  200 * time.Microsecond,
		Jitter:      0.5,
		JitterSeed:  7,
	}
}

// soakRun performs two releases (count fills the enforcer history, sum
// runs against it) on a fresh system whose engine and jobgraph share the
// given injector, returning the releases' deterministic outputs, the iDP
// budget ledger, and the engine's total metrics. budget is the engine's
// in-memory materialization budget: negative runs fully in memory, zero
// forces every materialization through the spill path.
func soakRun(t *testing.T, inj *chaos.Injector, budget int64) ([]releaseOutputs, float64, mapreduce.MetricsSnapshot) {
	t.Helper()
	data := seqData(400)
	domain := uniformDomain(0, 400)
	cfg := DefaultConfig()
	cfg.SampleSize = 40
	eng := mapreduce.NewEngine(
		mapreduce.WithRetryPolicy(soakRetryPolicy()),
		mapreduce.WithChaos(inj),
		mapreduce.WithMemoryBudget(budget))
	defer eng.Close()
	sys, err := NewSystem(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var outs []releaseOutputs
	for _, q := range []Query[float64]{countQuery(), sumQuery()} {
		res, err := Run(sys, q, data, domain)
		if err != nil {
			t.Fatalf("release %q under chaos: %v", q.Name, err)
		}
		outs = append(outs, outputsOf(res))
	}
	return outs, sys.EpsilonSpent(), eng.Metrics()
}

// soakSpillBudget returns the memory budget the spill soak forces: default 0
// (spill every materialization); UPA_SPILL_BUDGET overrides with a byte
// count so CI can sweep other pressure points.
func soakSpillBudget(t *testing.T) int64 {
	env := os.Getenv("UPA_SPILL_BUDGET")
	if env == "" {
		return 0
	}
	b, err := strconv.ParseInt(strings.TrimSpace(env), 10, 64)
	if err != nil {
		t.Fatalf("UPA_SPILL_BUDGET %q: %v", env, err)
	}
	return b
}

// TestChaosSoakReleaseInvariant is the headline robustness invariant: across
// the seed sweep, with task faults, stragglers, shuffle errors, and slot
// loss enabled at both the engine and jobgraph level, every release's output
// is byte-identical to the fault-free run, the iDP budget ledger is
// unchanged (recomputation never double-spends ε), and the fault-adjusted
// task accounting matches the clean run exactly.
func TestChaosSoakReleaseInvariant(t *testing.T) {
	cleanOuts, cleanEps, cleanM := soakRun(t, nil, -1)
	cleanJSON, err := json.Marshal(cleanOuts)
	if err != nil {
		t.Fatal(err)
	}
	if cleanEps <= 0 {
		t.Fatalf("clean run spent no budget: %v", cleanEps)
	}
	for _, seed := range soakSeeds(t) {
		inj := chaos.New(chaos.Policy{
			Seed:             seed,
			TaskFaultRate:    0.1,
			StragglerRate:    0.05,
			StragglerDelay:   200 * time.Microsecond,
			ShuffleErrorRate: 0.1,
			SlotLossRate:     0.2,
		})
		outs, eps, m := soakRun(t, inj, -1)
		faultyJSON, err := json.Marshal(outs)
		if err != nil {
			t.Fatal(err)
		}
		if string(faultyJSON) != string(cleanJSON) {
			t.Errorf("seed %d: release outputs diverged under chaos\n clean: %s\nfaulty: %s",
				seed, cleanJSON, faultyJSON)
			continue
		}
		if eps != cleanEps {
			t.Errorf("seed %d: budget ledger %v under chaos, %v clean — recomputation double-spent ε",
				seed, eps, cleanEps)
		}
		if m.TasksRun != cleanM.TasksRun {
			t.Errorf("seed %d: TasksRun = %d under chaos, %d clean", seed, m.TasksRun, cleanM.TasksRun)
		}
		if m.TaskAttempts-m.TaskFaults != cleanM.TaskAttempts {
			t.Errorf("seed %d: fault-adjusted attempts %d-%d != clean %d",
				seed, m.TaskAttempts, m.TaskFaults, cleanM.TaskAttempts)
		}
	}
}

// TestChaosSoakSpillInvariant is the out-of-core correctness gate: the same
// seed sweep as TestChaosSoakReleaseInvariant, but with the engine's memory
// budget forced low (default 0 — every materialization spilled; overridable
// via UPA_SPILL_BUDGET) so chaos recovery and disk-backed partitions compose.
// Every release must stay byte-identical to the clean in-memory run, the
// ε ledger unchanged, the task accounting identical, and the runs must have
// actually spilled — a soak that never touched the spill path proves nothing.
func TestChaosSoakSpillInvariant(t *testing.T) {
	budget := soakSpillBudget(t)
	cleanOuts, cleanEps, cleanM := soakRun(t, nil, -1)
	cleanJSON, err := json.Marshal(cleanOuts)
	if err != nil {
		t.Fatal(err)
	}

	// Spilled but fault-free first: isolates out-of-core from chaos.
	spillOuts, spillEps, spillM := soakRun(t, nil, budget)
	spillJSON, err := json.Marshal(spillOuts)
	if err != nil {
		t.Fatal(err)
	}
	if string(spillJSON) != string(cleanJSON) {
		t.Fatalf("spilled fault-free run diverged from in-memory run\n clean: %s\nspill: %s", cleanJSON, spillJSON)
	}
	if spillEps != cleanEps {
		t.Fatalf("spilled run ε ledger %v, in-memory %v", spillEps, cleanEps)
	}
	if spillM.SpilledBytes == 0 || spillM.SpillReads == 0 {
		t.Fatalf("budget %d run did not exercise the spill path: %d bytes spilled, %d reads",
			budget, spillM.SpilledBytes, spillM.SpillReads)
	}

	for _, seed := range soakSeeds(t) {
		inj := chaos.New(chaos.Policy{
			Seed:             seed,
			TaskFaultRate:    0.1,
			StragglerRate:    0.05,
			StragglerDelay:   200 * time.Microsecond,
			ShuffleErrorRate: 0.1,
			SlotLossRate:     0.2,
		})
		outs, eps, m := soakRun(t, inj, budget)
		faultyJSON, err := json.Marshal(outs)
		if err != nil {
			t.Fatal(err)
		}
		if string(faultyJSON) != string(cleanJSON) {
			t.Errorf("seed %d: spilled release outputs diverged under chaos\n clean: %s\nfaulty: %s",
				seed, cleanJSON, faultyJSON)
			continue
		}
		if eps != cleanEps {
			t.Errorf("seed %d: spilled ε ledger %v under chaos, %v clean", seed, eps, cleanEps)
		}
		if m.TasksRun != cleanM.TasksRun {
			t.Errorf("seed %d: spilled TasksRun = %d under chaos, %d clean", seed, m.TasksRun, cleanM.TasksRun)
		}
		if m.SpilledBytes == 0 {
			t.Errorf("seed %d: chaos run did not spill under budget %d", seed, budget)
		}
	}
}

// TestEpsilonLedger pins the ledger arithmetic: each successful release
// charges EffectiveEpsilon × OutputDim, and a failed release charges
// nothing.
func TestEpsilonLedger(t *testing.T) {
	sys := newTestSystem(t, nil)
	if got := sys.EpsilonSpent(); got != 0 {
		t.Fatalf("fresh system EpsilonSpent = %v, want 0", got)
	}
	data := seqData(300)
	domain := uniformDomain(0, 300)
	res, err := Run(sys, countQuery(), data, domain)
	if err != nil {
		t.Fatal(err)
	}
	want := res.EffectiveEpsilon
	if got := sys.EpsilonSpent(); got != want {
		t.Errorf("EpsilonSpent after one release = %v, want %v", got, want)
	}
	if _, err := Run(sys, sumQuery(), data, domain); err != nil {
		t.Fatal(err)
	}
	if got := sys.EpsilonSpent(); got != 2*want {
		t.Errorf("EpsilonSpent after two releases = %v, want %v", got, 2*want)
	}
	// A release that fails validation spends nothing.
	bad := countQuery()
	bad.Name = ""
	if _, err := Run(sys, bad, data, domain); err == nil {
		t.Fatal("invalid query released")
	}
	if got := sys.EpsilonSpent(); got != 2*want {
		t.Errorf("failed release charged the ledger: %v", got)
	}
}

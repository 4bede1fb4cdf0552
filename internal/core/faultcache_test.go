package core

import (
	"encoding/json"
	"testing"

	"upa/internal/chaos"
	"upa/internal/mapreduce"
)

// releaseOutputs is the deterministic surface of a release: everything the
// pipeline computes before and after enforcement, excluding wall-clock spans
// and engine counters (which legitimately differ under faults).
type releaseOutputs struct {
	Output, RawOutput, VanillaOutput          []float64
	Sensitivity, RangeLo, RangeHi             []float64
	RemovalOutputs, AdditionOutputs           [][]float64
	GroupRemovalOutputs, GroupAdditionOutputs [][]float64
	RemovedRecords, ClampedCoords             int
	AttackSuspected                           bool
}

func outputsOf(res *Result) releaseOutputs {
	return releaseOutputs{
		Output: res.Output, RawOutput: res.RawOutput, VanillaOutput: res.VanillaOutput,
		Sensitivity: res.Sensitivity, RangeLo: res.RangeLo, RangeHi: res.RangeHi,
		RemovalOutputs: res.RemovalOutputs, AdditionOutputs: res.AdditionOutputs,
		GroupRemovalOutputs: res.GroupRemovalOutputs, GroupAdditionOutputs: res.GroupAdditionOutputs,
		RemovedRecords: res.RemovedRecords, ClampedCoords: res.ClampedCoords,
		AttackSuspected: res.AttackSuspected,
	}
}

// TestFaultyWarmCacheReleaseIsDeterministic is the lineage-retry determinism
// check: a release on an engine with injected faults, run after an earlier
// release on the same system, must produce byte-identical outputs to the
// same release on a fault-free system. Task retries recompute partitions
// through lineage, and the commit-closure discipline of partitioned stages
// means a re-executed attempt publishes the same bytes — so faults may cost
// time, never correctness.
func TestFaultyWarmCacheReleaseIsDeterministic(t *testing.T) {
	data := seqData(600)
	domain := uniformDomain(0, 600)

	runPair := func(inj *chaos.Injector) *Result {
		cfg := DefaultConfig()
		cfg.SampleSize = 50
		sys, err := NewSystem(mapreduce.NewEngine(mapreduce.WithChaos(inj)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// First release runs a different query on the same engine (and
		// advances the release counter and the enforcer history), so the
		// second release runs on a used system without tripping the attack
		// path.
		if _, err := Run(sys, countQuery(), data, domain); err != nil {
			t.Fatal(err)
		}
		res, err := Run(sys, sumQuery(), data, domain)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	clean := runPair(nil)
	// Against the default three-attempt budget at this seed, retries fire
	// but no task exhausts its attempts.
	faulty := runPair(chaos.New(chaos.Policy{Seed: 1, TaskFaultRate: 0.15}))

	cleanJSON, err := json.Marshal(outputsOf(clean))
	if err != nil {
		t.Fatal(err)
	}
	faultyJSON, err := json.Marshal(outputsOf(faulty))
	if err != nil {
		t.Fatal(err)
	}
	if string(cleanJSON) != string(faultyJSON) {
		t.Errorf("faulty release diverged from clean release:\n clean: %s\nfaulty: %s",
			cleanJSON, faultyJSON)
	}
	if got := faulty.EngineDelta.TaskFaults; got < 2 {
		t.Errorf("TaskFaults = %d, want >= 2 (faults not exercised)", got)
	}
	if faulty.EngineDelta.TaskAttempts <= faulty.EngineDelta.TasksRun {
		t.Errorf("no retries recorded: attempts %d, runs %d",
			faulty.EngineDelta.TaskAttempts, faulty.EngineDelta.TasksRun)
	}
	// The release's spans still cover the whole DAG despite retries.
	if len(faulty.Spans) != len(clean.Spans) {
		t.Errorf("span counts differ: %d faulty vs %d clean", len(faulty.Spans), len(clean.Spans))
	}
}

// TestReleaseSpansSurface checks the Result carries the full stage DAG with
// the counters the cost model prices.
func TestReleaseSpansSurface(t *testing.T) {
	sys := newTestSystem(t, nil)
	res, err := Run(sys, countQuery(), seqData(400), uniformDomain(0, 400))
	if err != nil {
		t.Fatal(err)
	}
	if res.Release != 1 {
		t.Errorf("Release = %d, want 1", res.Release)
	}
	want := map[string]bool{
		StagePartitionSample: false, StageBulkReduce: false, StageMapSamples: false,
		StageMapAdditions: false, StagePrefixSuffix: false, StageNeighbourDeltas: false,
		StageNeighbourJoin: false, StageFit: false, StageEnforce: false, StagePerturb: false,
	}
	for _, s := range res.Spans {
		if _, ok := want[s.Stage]; !ok {
			t.Errorf("unexpected stage %q", s.Stage)
			continue
		}
		want[s.Stage] = true
		if s.Duration() < 0 || s.Start.IsZero() || s.End.IsZero() {
			t.Errorf("stage %q has no timing: %+v", s.Stage, s)
		}
		if s.Attempts < 1 {
			t.Errorf("stage %q ran %d attempts", s.Stage, s.Attempts)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("stage %q missing from spans", name)
		}
	}
	var hits, shuffled int64
	for _, s := range res.Spans {
		hits += s.CacheHits
		shuffled += s.ShuffledRecords
	}
	if hits < int64(res.SampleSize) {
		t.Errorf("spans report %d cache hits, want >= n = %d", hits, res.SampleSize)
	}
	if shuffled < 400 {
		t.Errorf("spans report %d shuffled records, want >= input size", shuffled)
	}
}

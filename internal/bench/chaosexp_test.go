package bench

import (
	"bytes"
	"strings"
	"testing"

	"upa/internal/cluster"
)

func TestChaosSweep(t *testing.T) {
	cfg := smallConfig()
	// Injection decisions are a pure function of (seed, site, task, attempt);
	// seed 1 is known to fault at least one task at rate 0.1 on this workload
	// shape, so the sweep demonstrably exercises recovery.
	cfg.Seed = 1
	rates := []float64{0, 0.1}
	rows, err := ChaosSweep(cfg, cluster.PaperTestbed(), rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	policies := len(DefaultChaosPolicies())
	if len(rows) != len(rates)*policies {
		t.Fatalf("got %d rows, want %d", len(rows), len(rates)*policies)
	}
	for _, r := range rows {
		if r.FaultRate == 0 {
			// No faults: every policy completes deterministically at ~baseline
			// price with zero recovery activity.
			if !r.Completed || !r.Deterministic {
				t.Errorf("rate 0 policy %s: completed=%v deterministic=%v", r.Policy, r.Completed, r.Deterministic)
			}
			if r.TaskFaults != 0 || r.TaskRetries != 0 || r.SimRetry != 0 {
				t.Errorf("rate 0 policy %s recovered from nothing: %+v", r.Policy, r)
			}
			continue
		}
		if r.Completed != r.Deterministic {
			t.Errorf("rate %v policy %s: completed=%v but deterministic=%v",
				r.FaultRate, r.Policy, r.Completed, r.Deterministic)
		}
		if r.Completed && r.Policy != "fail-fast" && r.Overhead < 1 {
			t.Errorf("rate %v policy %s: overhead %v < 1 despite recovery work",
				r.FaultRate, r.Policy, r.Overhead)
		}
	}
	// At rate 0.1 the retrying policies must have absorbed faults; determinism
	// of their recovered outputs was already enforced inside ChaosSweep.
	recovered := false
	for _, r := range rows {
		if r.FaultRate > 0 && r.Completed && r.TaskFaults > 0 {
			recovered = true
		}
	}
	if !recovered {
		t.Error("no policy recovered from any fault at rate 0.1; sweep exercises nothing")
	}

	var csv bytes.Buffer
	if err := WriteChaosCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(csv.String()), "\n")); got != len(rows)+1 {
		t.Errorf("CSV has %d lines, want %d", got, len(rows)+1)
	}
	if !strings.Contains(csv.String(), "task_faults") || !strings.Contains(csv.String(), "sim_retry_us") {
		t.Error("CSV header missing chaos columns")
	}
	out := RenderChaos(rows)
	if !strings.Contains(out, "fail-fast") || !strings.Contains(out, "patient") {
		t.Errorf("render missing policy rows:\n%s", out)
	}
}

func TestChaosSweepRejectsBadRate(t *testing.T) {
	if _, err := ChaosSweep(smallConfig(), cluster.PaperTestbed(), []float64{1.5}, nil); err == nil {
		t.Error("rate 1.5 accepted")
	}
}

func TestDefaultChaosPoliciesShapes(t *testing.T) {
	ps := DefaultChaosPolicies()
	if len(ps) < 3 {
		t.Fatalf("want >= 3 policies, got %d", len(ps))
	}
	if ps[0].Policy.Attempts() != 1 {
		t.Errorf("fail-fast policy retries: %d attempts", ps[0].Policy.Attempts())
	}
	for _, p := range ps[1:] {
		if p.Policy.Attempts() < 2 {
			t.Errorf("policy %s does not retry", p.Name)
		}
	}
}

// TestChaosSweepCSVReproducible runs one sweep configuration twice and
// requires byte-identical CSV. Recovery counters are a pure function of the
// seeded injector; a release that did not complete carries no price,
// because the stages that had started before its abort are scheduling.
func TestChaosSweepCSVReproducible(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 1
	rates := []float64{0.05, 0.2}
	var runs [2]bytes.Buffer
	failed := 0
	for i := range runs {
		rows, err := ChaosSweep(cfg, cluster.PaperTestbed(), rates, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if !r.Completed {
				failed++
				if r.SimCost != 0 || r.SimRetry != 0 || r.Overhead != 0 {
					t.Errorf("rate %v policy %s did not complete but is priced: %+v", r.FaultRate, r.Policy, r)
				}
			}
		}
		if err := WriteChaosCSV(&runs[i], rows); err != nil {
			t.Fatal(err)
		}
	}
	if failed == 0 {
		t.Fatal("every release completed: the sweep proves nothing about failed rows")
	}
	if a, b := runs[0].String(), runs[1].String(); a != b {
		t.Fatalf("two sweeps of one configuration wrote different CSV:\n%s\n%s", a, b)
	}
	if !strings.Contains(runs[0].String(), ",—,—,—") {
		t.Errorf("failed rows do not render their price as —:\n%s", runs[0].String())
	}
}

package chaos

import (
	"testing"
	"time"
)

// TestDecisionsAreDeterministic is the package's core contract: two
// injectors with the same policy agree on every decision, independent of
// call order.
func TestDecisionsAreDeterministic(t *testing.T) {
	p := Policy{
		Seed:             42,
		TaskFaultRate:    0.3,
		StragglerRate:    0.3,
		StragglerDelay:   time.Millisecond,
		ShuffleErrorRate: 0.3,
		SlotLossRate:     0.3,
	}
	a, b := New(p), New(p)
	sites := []string{"source.map", "source.map.reduceByKey:shuffle", "stage:bulk-reduce"}
	// Query b in reverse order to prove order-independence.
	type coord struct {
		site          string
		task, attempt int
	}
	var coords []coord
	for _, s := range sites {
		for task := 0; task < 20; task++ {
			for attempt := 1; attempt <= 3; attempt++ {
				coords = append(coords, coord{s, task, attempt})
			}
		}
	}
	got := make([]bool, len(coords))
	for i, c := range coords {
		got[i] = a.TaskFault(c.site, c.task, c.attempt)
	}
	for i := len(coords) - 1; i >= 0; i-- {
		c := coords[i]
		if b.TaskFault(c.site, c.task, c.attempt) != got[i] {
			t.Fatalf("TaskFault(%q, %d, %d) disagrees between same-policy injectors", c.site, c.task, c.attempt)
		}
	}
	for i, c := range coords {
		if a.TaskDelay(c.site, c.task, c.attempt) != b.TaskDelay(c.site, c.task, c.attempt) {
			t.Fatalf("TaskDelay coord %d disagrees", i)
		}
		if a.ShuffleError(c.site, c.attempt) != b.ShuffleError(c.site, c.attempt) {
			t.Fatalf("ShuffleError coord %d disagrees", i)
		}
		if a.SlotLost(c.site, c.task) != b.SlotLost(c.site, c.task) {
			t.Fatalf("SlotLost coord %d disagrees", i)
		}
	}
}

// TestRatesRoughlyHonoured samples many coordinates and checks the empirical
// fault frequency tracks the configured rate.
func TestRatesRoughlyHonoured(t *testing.T) {
	j := New(Policy{Seed: 7, TaskFaultRate: 0.2})
	n, faults := 20000, 0
	for task := 0; task < n; task++ {
		if j.TaskFault("site", task, 1) {
			faults++
		}
	}
	got := float64(faults) / float64(n)
	if got < 0.17 || got > 0.23 {
		t.Errorf("empirical fault rate %v, want ~0.2", got)
	}
	if c := j.Snapshot().Faults; c != int64(faults) {
		t.Errorf("Snapshot.Faults = %d, want %d", c, faults)
	}
}

// TestZeroPolicyAndNilInjectNothing pins the no-op paths call sites rely on.
func TestZeroPolicyAndNilInjectNothing(t *testing.T) {
	for name, j := range map[string]*Injector{"zero": New(Policy{}), "nil": nil} {
		for task := 0; task < 100; task++ {
			if j.TaskFault("s", task, 1) || j.TaskDelay("s", task, 1) != 0 ||
				j.ShuffleError("s", task) || j.SlotLost("s", task+1) {
				t.Fatalf("%s injector injected something", name)
			}
		}
	}
}

// TestSlotZeroImmune: slot 0 must never be lost, or a one-worker pool could
// deadlock a job.
func TestSlotZeroImmune(t *testing.T) {
	j := New(Policy{Seed: 1, SlotLossRate: 0.99})
	for i := 0; i < 1000; i++ {
		if j.SlotLost("site", 0) {
			t.Fatal("slot 0 lost")
		}
	}
}

// TestCountedFaultsConsumeFirst: a seeded fault is a property of its
// coordinates, not an item consumed from a queue. Asking again, in any
// order, fires the same faults; every firing is counted; and a retry, being
// a later attempt, re-rolls.
func TestCountedFaultsConsumeFirst(t *testing.T) {
	j := New(Policy{Seed: 3, TaskFaultRate: 0.5})
	const n = 200
	first := make([]bool, n)
	fired := 0
	for task := 0; task < n; task++ {
		if first[task] = j.TaskFault("s", task, 1); first[task] {
			fired++
		}
	}
	if fired == 0 || fired == n {
		t.Fatalf("%d of %d attempts faulted, want some but not all", fired, n)
	}
	for task := n - 1; task >= 0; task-- {
		if j.TaskFault("s", task, 1) != first[task] {
			t.Fatalf("task %d attempt 1 changed its fate on a second ask", task)
		}
	}
	if s := j.Snapshot(); s.Faults != int64(2*fired) {
		t.Errorf("Snapshot.Faults = %d, want %d (every firing counted)", s.Faults, 2*fired)
	}
	recovered := 0
	for task := 0; task < n; task++ {
		if first[task] && !j.TaskFault("s", task, 2) {
			recovered++
		}
	}
	if recovered == 0 {
		t.Error("no faulted task recovered on attempt 2: retries do not re-roll")
	}
}

// TestStageFaultIgnoresCountedQueue: StageFault and TaskFault draw from
// independent hash streams, so a stage scheduler and an engine sharing one
// injector do not fail together at coincident (site, task, attempt)
// coordinates.
func TestStageFaultIgnoresCountedQueue(t *testing.T) {
	j := New(Policy{Seed: 5, TaskFaultRate: 0.5})
	const n = 4000
	stage, task, both := 0, 0, 0
	for i := 0; i < n; i++ {
		s, k := j.StageFault("s", i, 1), j.TaskFault("s", i, 1)
		if s {
			stage++
		}
		if k {
			task++
		}
		if s && k {
			both++
		}
	}
	for name, c := range map[string]int{"StageFault": stage, "TaskFault": task} {
		if f := float64(c) / n; f < 0.45 || f > 0.55 {
			t.Errorf("%s rate %v, want ~0.5", name, f)
		}
	}
	// Independent streams fire together a quarter of the time; one shared
	// stream would fire together every time either fires (1/2).
	if f := float64(both) / n; f < 0.2 || f > 0.3 {
		t.Errorf("StageFault and TaskFault fired together at %v of coordinates, want ~0.25", f)
	}
	if s := j.Snapshot(); s.Faults != int64(stage+task) {
		t.Errorf("Snapshot.Faults = %d, want %d", s.Faults, stage+task)
	}
}

// TestPolicyValidate rejects out-of-range rates; New clamps them to no-op.
func TestPolicyValidate(t *testing.T) {
	if err := (Policy{TaskFaultRate: 1.0}).Validate(); err == nil {
		t.Error("rate 1.0 accepted (would fault every attempt forever)")
	}
	if err := (Policy{ShuffleErrorRate: -0.1}).Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (Policy{StragglerDelay: -time.Second}).Validate(); err == nil {
		t.Error("negative delay accepted")
	}
	j := New(Policy{TaskFaultRate: 2})
	if j.TaskFault("s", 0, 1) {
		t.Error("invalid policy not clamped to no-op")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	if d := p.Backoff("s", 0, 1); d != time.Millisecond {
		t.Errorf("retry 1 backoff = %v, want 1ms", d)
	}
	if d := p.Backoff("s", 0, 2); d != 2*time.Millisecond {
		t.Errorf("retry 2 backoff = %v, want 2ms", d)
	}
	if d := p.Backoff("s", 0, 10); d != 4*time.Millisecond {
		t.Errorf("retry 10 backoff = %v, want cap 4ms", d)
	}
	if d := (RetryPolicy{}).Backoff("s", 0, 1); d != 0 {
		t.Errorf("zero policy backoff = %v, want 0", d)
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Millisecond, Jitter: 0.5, JitterSeed: 9}
	seen := make(map[time.Duration]bool)
	for task := 0; task < 50; task++ {
		d := p.Backoff("site", task, 1)
		if d != p.Backoff("site", task, 1) {
			t.Fatal("jittered backoff not deterministic")
		}
		if d < time.Millisecond/2 || d > 3*time.Millisecond/2 {
			t.Fatalf("jittered backoff %v outside [0.5ms, 1.5ms]", d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Errorf("jitter produced only %d distinct backoffs over 50 tasks", len(seen))
	}
}

func TestBudget(t *testing.T) {
	b := (RetryPolicy{RetryBudget: 2}).NewBudget()
	if !b.Take() || !b.Take() {
		t.Fatal("budget exhausted early")
	}
	if b.Take() {
		t.Fatal("budget over-granted")
	}
	if b.Used() != 2 {
		t.Errorf("Used = %d, want 2", b.Used())
	}
	unlimited := (RetryPolicy{}).NewBudget()
	for i := 0; i < 100; i++ {
		if !unlimited.Take() {
			t.Fatal("unlimited budget refused")
		}
	}
	var nilBudget *Budget
	if !nilBudget.Take() || nilBudget.Used() != 0 {
		t.Error("nil budget must be unlimited")
	}
}

func TestAttemptsClamp(t *testing.T) {
	if got := (RetryPolicy{}).Attempts(); got != 1 {
		t.Errorf("zero policy Attempts = %d, want 1", got)
	}
	if got := (RetryPolicy{MaxAttempts: 4}).Attempts(); got != 4 {
		t.Errorf("Attempts = %d, want 4", got)
	}
}

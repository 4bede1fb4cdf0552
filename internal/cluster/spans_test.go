package cluster

import (
	"testing"
	"time"

	"upa/internal/jobgraph"
)

// testModel prices with round numbers: 10 cores, 100ns/record-op, 1 Gbps,
// 1ms barriers and task overhead, 10ms startup.
func testModel() Model {
	return Model{
		Nodes: 2, CoresPerNode: 5, RecordCPU: 100 * time.Nanosecond,
		RecordBytes: 125, BisectionGbps: 1,
		ShuffleLatency: time.Millisecond, TaskOverhead: time.Millisecond,
		JobStartup: 10 * time.Millisecond,
	}
}

func TestPriceSpanComponents(t *testing.T) {
	m := testModel()
	c, err := m.PriceSpan(jobgraph.Span{
		Stage:           "shuffle-stage",
		Records:         5000,
		ReduceOps:       5000,
		ShuffledRecords: 1_000_000,
		ShuffleBytes:    125_000_000, // 1e9 bits over 1 Gbps = 1s
		Attempts:        20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.CPU != 100*time.Microsecond {
		t.Errorf("CPU = %v, want 100µs", c.CPU)
	}
	if c.Network != time.Second {
		t.Errorf("Network = %v, want 1s", c.Network)
	}
	if c.Barriers != time.Millisecond {
		t.Errorf("Barriers = %v, want one shuffle latency", c.Barriers)
	}
	// ceil(20 attempts / 2 nodes) = 10 waves.
	if c.Scheduler != 10*time.Millisecond {
		t.Errorf("Scheduler = %v, want 10ms", c.Scheduler)
	}
	if c.Startup != 0 {
		t.Errorf("span charged startup %v; startup is per-plan", c.Startup)
	}
}

func TestPriceSpanChargesRetries(t *testing.T) {
	m := testModel()
	c, err := m.PriceSpan(jobgraph.Span{
		Stage:        "retried-stage",
		Attempts:     4,
		Retries:      3,
		BackoffNanos: int64(2 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 retries × 1ms rescheduling + 2ms waited in backoff.
	if c.Retry != 5*time.Millisecond {
		t.Errorf("Retry = %v, want 5ms", c.Retry)
	}
	// ceil(4/2) = 2 scheduling waves still price the attempts themselves.
	if c.Scheduler != 2*time.Millisecond {
		t.Errorf("Scheduler = %v, want 2ms", c.Scheduler)
	}
	if c.Total() != c.Retry+c.Scheduler {
		t.Error("Total does not include the retry surcharge")
	}
}

func TestPriceSpanFallsBackToRecordBytes(t *testing.T) {
	m := testModel()
	c, err := m.PriceSpan(jobgraph.Span{Stage: "s", ShuffledRecords: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// 1e6 records * 125 bytes * 8 = 1e9 bits over 1 Gbps = 1s.
	if c.Network != time.Second {
		t.Errorf("fallback Network = %v, want 1s", c.Network)
	}
}

func TestPricePlanCriticalPath(t *testing.T) {
	m := testModel()
	// a (1M ops) feeds b (5M ops) and c (1M ops); d joins both. The critical
	// path must run through b.
	spans := []jobgraph.Span{
		{Stage: "a", Records: 1_000_000, Attempts: 1},
		{Stage: "b", Deps: []string{"a"}, Records: 5_000_000, Attempts: 1},
		{Stage: "c", Deps: []string{"a"}, Records: 1_000_000, Attempts: 1},
		{Stage: "d", Deps: []string{"b", "c"}, Records: 1_000_000, Attempts: 1},
	}
	plan, err := m.PricePlan(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "d"}
	if len(plan.CriticalPath) != len(want) {
		t.Fatalf("critical path = %v, want %v", plan.CriticalPath, want)
	}
	for i, s := range want {
		if plan.CriticalPath[i] != s {
			t.Fatalf("critical path = %v, want %v", plan.CriticalPath, want)
		}
	}
	// Pipelined total skips c's cost; sequential pays it.
	if plan.Total >= plan.Sequential {
		t.Errorf("pipelined plan %v not cheaper than sequential %v", plan.Total, plan.Sequential)
	}
	// 1M record-ops * 100ns / 10 cores = 10ms CPU per unit stage; path
	// a+b+d = 7 units of CPU + 3 waves + startup.
	wantTotal := 70*time.Millisecond + 3*time.Millisecond + m.JobStartup
	if plan.Total != wantTotal {
		t.Errorf("Total = %v, want %v", plan.Total, wantTotal)
	}
	wantSeq := 80*time.Millisecond + 4*time.Millisecond + m.JobStartup
	if plan.Sequential != wantSeq {
		t.Errorf("Sequential = %v, want %v", plan.Sequential, wantSeq)
	}
}

func TestPricePlanRejectsBadPlans(t *testing.T) {
	m := testModel()
	if _, err := m.PricePlan([]jobgraph.Span{{Stage: "a"}, {Stage: "a"}}); err == nil {
		t.Error("duplicate stage accepted")
	}
	if _, err := m.PricePlan([]jobgraph.Span{{Stage: "a", Deps: []string{"ghost"}}}); err == nil {
		t.Error("unknown dependency accepted")
	}
	cyclic := []jobgraph.Span{
		{Stage: "a", Deps: []string{"b"}},
		{Stage: "b", Deps: []string{"a"}},
	}
	if _, err := m.PricePlan(cyclic); err == nil {
		t.Error("cyclic plan accepted")
	}
}

func TestPricePlanEmpty(t *testing.T) {
	m := testModel()
	plan, err := m.PricePlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total != m.JobStartup || plan.Sequential != m.JobStartup {
		t.Errorf("empty plan priced at %v/%v, want bare startup", plan.Total, plan.Sequential)
	}
}

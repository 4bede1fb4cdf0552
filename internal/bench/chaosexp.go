package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"upa/internal/chaos"
	"upa/internal/cluster"
	"upa/internal/mapreduce"
)

// ChaosPolicySpec names one retry policy of the chaos sweep.
type ChaosPolicySpec struct {
	Name   string
	Policy chaos.RetryPolicy
}

// ChaosRow is one (fault rate, retry policy) cell of the chaos sweep: a full
// UPA release run under seeded fault injection, checked for output
// determinism against the fault-free baseline, with the engine's recovery
// counters and the cluster-model price of the run (including the Retry
// surcharge the recovery added).
type ChaosRow struct {
	Query       string
	FaultRate   float64
	Policy      string
	MaxAttempts int
	// Completed reports whether the release survived the fault rate under
	// this policy; Deterministic whether its output was byte-identical to
	// the fault-free baseline (vacuously false when not Completed).
	Completed     bool
	Deterministic bool
	// Recovery counters from the engine's metrics delta.
	TaskFaults     int64
	TaskRetries    int64
	ShuffleRetries int64
	SlotsLost      int64
	Backoff        time.Duration
	// SimCost is the cluster-model price of the run; SimRetry its Retry
	// component; Overhead the price normalized to the fault-free baseline.
	// All three are zero, and render as "—", when the release did not
	// complete: which concurrent stages had started before the abort is
	// scheduling, so a failed run has no reproducible price.
	SimCost  time.Duration
	SimRetry time.Duration
	Overhead float64
}

// DefaultChaosPolicies returns the sweep's retry-policy axis: a fail-fast
// policy (no retries — any fault kills the release), the engine default, and
// a patient policy with more attempts and longer backoff.
func DefaultChaosPolicies() []ChaosPolicySpec {
	return []ChaosPolicySpec{
		{Name: "fail-fast", Policy: chaos.RetryPolicy{MaxAttempts: 1}},
		{Name: "default", Policy: chaos.RetryPolicy{
			MaxAttempts: 3, BaseBackoff: 200 * time.Microsecond,
			MaxBackoff: 2 * time.Millisecond, Jitter: 0.5, JitterSeed: 7}},
		{Name: "patient", Policy: chaos.RetryPolicy{
			MaxAttempts: 6, BaseBackoff: 500 * time.Microsecond,
			MaxBackoff: 8 * time.Millisecond, Jitter: 0.5, JitterSeed: 7}},
	}
}

// ChaosSweep prices fault tolerance: it releases one query through UPA under
// a grid of seeded fault rates × retry policies, verifying on every cell that
// recovery (when it succeeds) reproduces the fault-free output exactly, and
// pricing what the recovery cost in simulated cluster time. rates nil
// defaults to {0.02, 0.05, 0.1, 0.2}; policies nil to DefaultChaosPolicies.
// Each rate drives task faults, shuffle errors, and slot loss together.
func ChaosSweep(cfg Config, model cluster.Model, rates []float64, policies []ChaosPolicySpec) ([]ChaosRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		rates = []float64{0.02, 0.05, 0.1, 0.2}
	}
	if len(policies) == 0 {
		policies = DefaultChaosPolicies()
	}
	const queryName = "TPCH6"
	w, err := cfg.Workload(0)
	if err != nil {
		return nil, err
	}
	r, err := w.ByName(queryName)
	if err != nil {
		return nil, err
	}

	// Fault-free baseline: the output every faulted run must reproduce and
	// the price every faulted run is normalized to.
	baseEng := mapreduce.NewEngine()
	baseSys, err := cfg.newSystem(baseEng, cfg.SampleSize)
	if err != nil {
		return nil, err
	}
	baseRes, err := r.RunUPA(baseSys)
	if err != nil {
		return nil, fmt.Errorf("bench: chaos baseline %s: %w", queryName, err)
	}
	baseOut, err := json.Marshal(baseRes.Output)
	if err != nil {
		return nil, err
	}
	baseCost, err := model.Estimate(baseEng.Metrics())
	if err != nil {
		return nil, err
	}

	rows := make([]ChaosRow, 0, len(rates)*len(policies))
	for _, rate := range rates {
		if rate < 0 || rate >= 1 {
			return nil, fmt.Errorf("bench: chaos fault rate must be in [0, 1), got %v", rate)
		}
		for _, p := range policies {
			inj := chaos.New(chaos.Policy{
				Seed:             cfg.Seed,
				TaskFaultRate:    rate,
				ShuffleErrorRate: rate,
				SlotLossRate:     rate,
			})
			eng := mapreduce.NewEngine(
				mapreduce.WithRetryPolicy(p.Policy),
				mapreduce.WithChaos(inj))
			sys, err := cfg.newSystem(eng, cfg.SampleSize)
			if err != nil {
				return nil, err
			}
			res, runErr := r.RunUPA(sys)

			m := eng.Metrics()
			cost, err := model.Estimate(m)
			if err != nil {
				return nil, err
			}
			row := ChaosRow{
				Query:          queryName,
				FaultRate:      rate,
				Policy:         p.Name,
				MaxAttempts:    p.Policy.Attempts(),
				Completed:      runErr == nil,
				TaskFaults:     m.TaskFaults,
				TaskRetries:    m.TaskRetries,
				ShuffleRetries: m.ShuffleRetries,
				SlotsLost:      m.SlotsLost,
				Backoff:        time.Duration(m.BackoffNanos),
			}
			if runErr == nil {
				row.SimCost = cost.Total()
				row.SimRetry = cost.Retry
				row.Overhead = float64(cost.Total()) / float64(baseCost.Total())
				out, err := json.Marshal(res.Output)
				if err != nil {
					return nil, err
				}
				row.Deterministic = string(out) == string(baseOut)
				if !row.Deterministic {
					return nil, fmt.Errorf(
						"bench: chaos rate %v policy %s: recovered release diverged from the fault-free output",
						rate, p.Name)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// unpriced stands in for the price columns of a release that did not
// complete.
const unpriced = "—"

// RenderChaos renders the chaos sweep.
func RenderChaos(rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos sweep: seeded fault rates x retry policies on one UPA release\n")
	fmt.Fprintf(&b, "(a completed release is always checked byte-identical to the fault-free run)\n")
	fmt.Fprintf(&b, "%-8s %-10s %8s %9s %7s %7s %8s %6s %10s %12s %9s\n",
		"rate", "policy", "attempts", "done", "faults", "retries", "shufretr", "slots",
		"backoff", "sim", "overhead")
	for _, r := range rows {
		done, sim, overhead := "ok", r.SimCost.Round(time.Microsecond).String(), fmt.Sprintf("%.2fx", r.Overhead)
		if !r.Completed {
			done, sim, overhead = "FAILED", unpriced, unpriced
		}
		fmt.Fprintf(&b, "%-8.2f %-10s %8d %9s %7d %7d %8d %6d %10v %12s %9s\n",
			r.FaultRate, r.Policy, r.MaxAttempts, done,
			r.TaskFaults, r.TaskRetries, r.ShuffleRetries, r.SlotsLost,
			r.Backoff.Round(time.Microsecond), sim, overhead)
	}
	return b.String()
}

package cluster

import (
	"fmt"
	"time"

	"upa/internal/jobgraph"
)

// PriceSpan prices one jobgraph stage span into simulated cluster time.
// Unlike Estimate, which prices a whole release's aggregate engine delta, a
// span is priced from the counters its stage reported, so the cost model can
// attribute simulated time stage by stage. JobStartup is not charged here —
// a plan pays it once (see PricePlan), not once per stage.
func (m Model) PriceSpan(s jobgraph.Span) (Cost, error) {
	if err := m.Validate(); err != nil {
		return Cost{}, err
	}
	cores := float64(m.Nodes * m.CoresPerNode)
	recordOps := float64(s.Records + s.ReduceOps)
	cpu := time.Duration(recordOps * float64(m.RecordCPU) / cores)

	// Spans carry the actual shuffled byte volume; fall back to the model's
	// per-record size for stages that only counted records.
	bits := float64(s.ShuffleBytes) * 8
	if s.ShuffleBytes == 0 {
		bits = float64(s.ShuffledRecords) * float64(m.RecordBytes) * 8
	}
	network := time.Duration(bits / (m.BisectionGbps * 1e9) * float64(time.Second))

	var barriers time.Duration
	if s.ShuffledRecords > 0 || s.ShuffleBytes > 0 {
		// A stage that shuffles pays one synchronization barrier.
		barriers = m.ShuffleLatency
	}
	waves := (int64(s.Attempts) + int64(m.Nodes) - 1) / int64(m.Nodes)
	scheduler := time.Duration(waves) * m.TaskOverhead

	retry := time.Duration(s.Retries)*m.TaskOverhead + time.Duration(s.BackoffNanos)

	return Cost{CPU: cpu, Network: network, Barriers: barriers, Scheduler: scheduler, Retry: retry}, nil
}

// StageCost is one stage of a priced plan.
type StageCost struct {
	// Stage names the stage; Cost is its modeled cost (no startup share).
	Stage string
	Cost  Cost
	// Finish is the stage's completion time along the modeled schedule: its
	// own cost on top of the latest-finishing dependency. The plan's
	// critical-path length is the greatest Finish.
	Finish time.Duration
}

// PlanCost is a whole release DAG priced stage by stage.
type PlanCost struct {
	// Stages holds one priced entry per span, in span order.
	Stages []StageCost
	// CriticalPath lists the stage names along the longest dependency chain,
	// in execution order.
	CriticalPath []string
	// Sequential is startup plus the sum of every stage's cost — the modeled
	// time of a scheduler that runs stages one at a time.
	Sequential time.Duration
	// Total is startup plus the critical-path length — the modeled time with
	// unlimited inter-stage parallelism. Sequential/Total is the pipelining
	// speedup the DAG admits.
	Total time.Duration
}

// PricePlan prices a release's stage spans as a DAG: each stage costs
// PriceSpan and can start only after its dependencies finish. It returns the
// per-stage breakdown, the critical path, and both the sequential and the
// pipelined (critical-path) plan times, each charged one JobStartup.
func (m Model) PricePlan(spans []jobgraph.Span) (PlanCost, error) {
	if err := m.Validate(); err != nil {
		return PlanCost{}, err
	}
	index := make(map[string]int, len(spans))
	for i, s := range spans {
		if _, dup := index[s.Stage]; dup {
			return PlanCost{}, fmt.Errorf("cluster: duplicate stage %q in plan", s.Stage)
		}
		index[s.Stage] = i
	}

	plan := PlanCost{Stages: make([]StageCost, len(spans))}
	costs := make([]Cost, len(spans))
	for i, s := range spans {
		c, err := m.PriceSpan(s)
		if err != nil {
			return PlanCost{}, err
		}
		costs[i] = c
		plan.Sequential += c.Total()
	}

	// finish[i] = cost(i) + max over deps of finish(dep), memoized; pred[i]
	// remembers the arg-max dependency for critical-path extraction. Spans
	// are not required to be topologically ordered, so recurse with a
	// visiting mark to reject cycles defensively.
	finish := make([]time.Duration, len(spans))
	pred := make([]int, len(spans))
	state := make([]int, len(spans)) // 0 unvisited, 1 visiting, 2 done
	var walk func(i int) (time.Duration, error)
	walk = func(i int) (time.Duration, error) {
		switch state[i] {
		case 2:
			return finish[i], nil
		case 1:
			return 0, fmt.Errorf("cluster: dependency cycle through stage %q", spans[i].Stage)
		}
		state[i] = 1
		pred[i] = -1
		var latest time.Duration
		for _, dep := range spans[i].Deps {
			j, ok := index[dep]
			if !ok {
				return 0, fmt.Errorf("cluster: stage %q depends on unknown stage %q", spans[i].Stage, dep)
			}
			f, err := walk(j)
			if err != nil {
				return 0, err
			}
			if f > latest || pred[i] < 0 {
				latest, pred[i] = f, j
			}
		}
		finish[i] = latest + costs[i].Total()
		state[i] = 2
		return finish[i], nil
	}

	tail := -1
	var longest time.Duration
	for i := range spans {
		f, err := walk(i)
		if err != nil {
			return PlanCost{}, err
		}
		plan.Stages[i] = StageCost{Stage: spans[i].Stage, Cost: costs[i], Finish: f}
		if f > longest || tail < 0 {
			longest, tail = f, i
		}
	}
	for i := tail; i >= 0; i = pred[i] {
		plan.CriticalPath = append(plan.CriticalPath, spans[i].Stage)
	}
	for l, r := 0, len(plan.CriticalPath)-1; l < r; l, r = l+1, r-1 {
		plan.CriticalPath[l], plan.CriticalPath[r] = plan.CriticalPath[r], plan.CriticalPath[l]
	}
	plan.Sequential += m.JobStartup
	plan.Total = longest + m.JobStartup
	return plan, nil
}

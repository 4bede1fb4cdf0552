package bench

import (
	"fmt"
	"strings"
	"time"

	"upa/internal/cluster"
	"upa/internal/mapreduce"
)

// StageRow is one jobgraph stage of one query's release: the measured
// in-process span plus its cluster-model price. It is the per-stage
// refinement of the Figure 2(b) simulated-testbed aggregate — instead of one
// engine delta per release, each stage is priced from the counters it
// reported, so the breakdown shows where a release's simulated time goes
// (the paper's §VI-D attributes >42% of UPA's overhead on local-computation
// queries to the enforcer's extra shuffle, which here is the
// partition-sample stage's network cost).
type StageRow struct {
	Query string
	Stage string
	Deps  []string
	// Measured is the in-process wall-clock span of the stage.
	Measured time.Duration
	// Counters the stage reported into its span.
	Records, ShuffledRecords, ShuffleBytes, ReduceOps, CacheHits int64
	// Attempts counts executions of the stage's task.
	Attempts int
	// TaskFaults and Retries are the stage's fault-recovery counters: injected
	// faults absorbed and attempts re-run under the retry policy.
	TaskFaults, Retries int64
	// SimCost is the stage's modeled cluster time; Critical marks membership
	// in the plan's critical path.
	SimCost  time.Duration
	Critical bool
}

// PlanRow summarizes one query's priced release DAG: the modeled cluster
// time of a stage-at-a-time scheduler versus the pipelined critical path,
// whose ratio is the speedup the DAG's stage parallelism admits.
type PlanRow struct {
	Query         string
	SimSequential time.Duration
	SimPipelined  time.Duration
	Speedup       float64
	CriticalPath  []string
}

// StageBreakdown releases every workload query through UPA and prices each
// release's stage spans with the cluster cost model.
func StageBreakdown(cfg Config, model cluster.Model) ([]StageRow, []PlanRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, nil, err
	}
	w, err := cfg.Workload(0)
	if err != nil {
		return nil, nil, err
	}
	var stages []StageRow
	plans := make([]PlanRow, 0, 9)
	for _, r := range w.All() {
		sys, err := cfg.newSystem(mapreduce.NewEngine(), cfg.SampleSize)
		if err != nil {
			return nil, nil, err
		}
		res, err := r.RunUPA(sys)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: UPA %s: %w", r.Name(), err)
		}
		plan, err := model.PricePlan(res.Spans)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: pricing %s: %w", r.Name(), err)
		}
		critical := make(map[string]bool, len(plan.CriticalPath))
		for _, s := range plan.CriticalPath {
			critical[s] = true
		}
		for i, s := range res.Spans {
			stages = append(stages, StageRow{
				Query:           r.Name(),
				Stage:           s.Stage,
				Deps:            s.Deps,
				Measured:        s.Duration(),
				Records:         s.Records,
				ShuffledRecords: s.ShuffledRecords,
				ShuffleBytes:    s.ShuffleBytes,
				ReduceOps:       s.ReduceOps,
				CacheHits:       s.CacheHits,
				Attempts:        s.Attempts,
				TaskFaults:      s.TaskFaults,
				Retries:         s.Retries,
				SimCost:         plan.Stages[i].Cost.Total(),
				Critical:        critical[s.Stage],
			})
		}
		row := PlanRow{
			Query:         r.Name(),
			SimSequential: plan.Sequential,
			SimPipelined:  plan.Total,
			CriticalPath:  plan.CriticalPath,
		}
		if plan.Total > 0 {
			row.Speedup = float64(plan.Sequential) / float64(plan.Total)
		}
		plans = append(plans, row)
	}
	return stages, plans, nil
}

// RenderStageBreakdown renders the per-stage spans and the per-query plan
// summaries.
func RenderStageBreakdown(stages []StageRow, plans []PlanRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Release stage breakdown: measured spans and cluster-model prices per jobgraph stage\n")
	fmt.Fprintf(&b, "%-18s %-17s %10s %10s %9s %9s %6s %12s %5s\n",
		"Query", "Stage", "measured", "records", "shuffled", "reduces", "hits", "sim", "crit")
	for _, s := range stages {
		crit := ""
		if s.Critical {
			crit = "*"
		}
		fmt.Fprintf(&b, "%-18s %-17s %10v %10d %9d %9d %6d %12v %5s\n",
			s.Query, s.Stage, s.Measured.Round(time.Microsecond),
			s.Records, s.ShuffledRecords, s.ReduceOps, s.CacheHits,
			s.SimCost.Round(time.Microsecond), crit)
	}
	fmt.Fprintf(&b, "\nPlan cost: sequential vs pipelined (critical path) under the simulated testbed\n")
	fmt.Fprintf(&b, "%-18s %14s %14s %8s  %s\n", "Query", "sequential", "pipelined", "speedup", "critical path")
	for _, p := range plans {
		fmt.Fprintf(&b, "%-18s %14v %14v %7.2fx  %s\n",
			p.Query, p.SimSequential.Round(time.Microsecond), p.SimPipelined.Round(time.Microsecond),
			p.Speedup, strings.Join(p.CriticalPath, " -> "))
	}
	return b.String()
}

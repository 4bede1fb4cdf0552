package main

import (
	"fmt"
	"strings"

	"upa/internal/lifesci"
	"upa/internal/mapreduce"
	"upa/internal/queries"
	"upa/internal/serve"
	"upa/internal/sql"
	"upa/internal/tpch"
)

// The release parameters every workload shares (the paper's evaluation
// setting) and the one tenant the benchmark bills.
const (
	epsilon = 0.1
	skew    = 0.2
	tenant  = "bench"
	user    = "u"
)

// sizes are the data sizes of a run. The defaults are the issue's; the smoke
// test shrinks them.
type sizes struct {
	lineitems, lsRecords, sampleSize int
}

// reference is the benchmark's own copy of the server's warehouse, generated
// from the same seed with the same generators: the exact answers, the
// non-private baseline and the in-process replays are all computed on it.
type reference struct {
	sz     sizes
	w      *queries.Workload
	tables map[string]*sql.ScanPlan
	named  map[string]sql.Plan
}

// buildReference mirrors newServer in cmd/upa-server: same generator
// configurations, same table registry, same canned plans.
func buildReference(sz sizes, seed uint64) (*reference, error) {
	w, err := queries.NewWorkload(
		tpch.Config{Lineitems: sz.lineitems, Skew: skew, Seed: seed},
		lifesci.Config{Records: sz.lsRecords, Dims: 4, Clusters: 3, OutlierFrac: 0.01, Seed: seed},
	)
	if err != nil {
		return nil, err
	}
	r := &reference{
		sz: sz,
		w:  w,
		tables: map[string]*sql.ScanPlan{
			"lineitem": queries.LineitemRelation(w.DB),
			"orders":   queries.OrdersRelation(w.DB),
			"customer": queries.CustomerRelation(w.DB),
		},
		named: make(map[string]sql.Plan),
	}
	for _, name := range []string{"tpch1", "tpch1full", "tpch4", "tpch6", "tpch13"} {
		plan, err := queries.PlanByName(w.DB, name)
		if err != nil {
			return nil, err
		}
		r.named[name] = plan
	}
	return r, nil
}

// service builds an in-process serve.Service configured like the server's.
func (r *reference) service(eng *mapreduce.Engine, statePath string) (*serve.Service, error) {
	return serve.NewService(serve.Config{
		Engine: eng,
		Tables: r.tables,
		NamedPlan: func(name string) (sql.Plan, error) {
			plan, ok := r.named[strings.ToLower(name)]
			if !ok {
				return nil, fmt.Errorf("no canned plan %q", name)
			}
			return plan, nil
		},
		SampleSize:     r.sz.sampleSize,
		DefaultEpsilon: epsilon,
		StatePath:      statePath,
	}, []serve.TenantSpec{{Name: tenant}})
}

// plan resolves an operation kind to the sql.Plan the server would run.
func (r *reference) plan(k opKind) (sql.Plan, error) {
	if k.planName != "" {
		plan, ok := r.named[k.planName]
		if !ok {
			return nil, fmt.Errorf("no canned plan %q", k.planName)
		}
		return plan, nil
	}
	return serve.DecodePlan([]byte(k.planJSON), r.tables)
}

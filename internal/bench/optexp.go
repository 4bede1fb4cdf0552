package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"upa/internal/mapreduce"
	"upa/internal/queries"
	"upa/internal/sql"
)

// OptimizerRow is one workload of the plan-optimizer experiment: the same
// relational plan executed raw (as written) and through sql.Optimize, with
// the engine's shuffle and mapper deltas plus wall time for both paths. The
// two executions are checked to return the identical row multiset before
// the row is accepted — the optimizer's semantics contract, enforced on
// every experiment run.
type OptimizerRow struct {
	// Workload names the plan shape; Query the underlying TPC-H plan;
	// Lineitems the generated dataset scale.
	Workload  string
	Query     string
	Lineitems int
	// RawShuffled/OptShuffled are the RecordsShuffled deltas of the two
	// paths; RawMapped/OptMapped the RecordsMapped deltas; RawCells/OptCells
	// the values the plan's base relations feed the engine (rows × columns
	// summed over scans — what projection pruning narrows).
	RawShuffled, OptShuffled int64
	RawMapped, OptMapped     int64
	RawCells, OptCells       int64
	// ShuffleReduction is 1 - opt/raw shuffled (0 when nothing shuffles);
	// MapReduction and CellReduction the same over mapped records and
	// scanned cells.
	ShuffleReduction float64
	MapReduction     float64
	CellReduction    float64
	// RawTime/OptTime are min-of-reps wall times — indicative, not a
	// statistical claim (the record counters are the load-bearing result).
	// The optimized time includes the Optimize call itself, and is the
	// default Execute path, which routes vectorizable subtrees through the
	// columnar kernels.
	RawTime, OptTime time.Duration
	// RecordsBatched/BatchesProcessed are the optimized run's converter
	// metrics: rows that flowed through fused batch operators and the batch
	// count. Both zero when the physical plan has no columnar subtree.
	RecordsBatched, BatchesProcessed int64
	// Rewrites is how many optimizer rewrites fired on the plan.
	Rewrites int
}

// OptimizerBench measures what the logical plan optimizer saves on three
// plan shapes over the generated TPC-H tables:
//
//   - filter-over-join (TPC-H Q4): predicate pushdown filters both join
//     inputs before the shuffle and pruning narrows both scans, so the
//     join shuffles strictly fewer records;
//   - projection-heavy (TPC-H Q1 full): projection pruning drops the
//     lineitem columns the grouped aggregation never reads;
//   - limit (top of a projected lineitem scan): limit pushdown and the
//     per-partition head keep the single-partition shuffle to a prefix.
//
// Each path runs reps times (min 1) and reports its fastest wall time —
// record counters are deterministic across runs and come from the first.
func OptimizerBench(cfg Config, reps int) ([]OptimizerRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reps = max(reps, 1)
	w, err := cfg.Workload(0)
	if err != nil {
		return nil, err
	}
	workloads := []struct {
		name  string
		query string
		plan  sql.Plan
	}{
		{"filter-over-join", "tpch4", queries.TPCH4Plan(w.DB)},
		{"projection-heavy", "tpch1full", queries.TPCH1FullPlan(w.DB)},
		{"vector-agg", "tpch6", tpch6Workload(w)},
		{"vector-scan", "lineitem-discprice", vectorWorkload(w)},
		{"limit", "lineitem-top100", limitWorkload(w)},
	}
	rows := make([]OptimizerRow, 0, len(workloads))
	for _, wl := range workloads {
		row, err := runOptimizerWorkload(wl.name, wl.query, cfg.Lineitems, wl.plan, reps)
		if err != nil {
			return nil, fmt.Errorf("bench: optimizer %s: %w", wl.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// tpch6Workload builds TPC-H Q6's shape: a global revenue aggregate
// (sum of price×discount plus a row count) under the date-window,
// discount-band and quantity predicates. The whole subtree is
// vectorizable, and the aggregate consumes batches directly — no
// batch-to-row reconstruction — so it is where the columnar kernels pay
// off hardest.
func tpch6Workload(w *queries.Workload) sql.Plan {
	pred := sql.And(
		sql.And(
			sql.Gt(sql.Col("l_shipdate"), sql.Lit(sql.Int(8000))),
			sql.Le(sql.Col("l_shipdate"), sql.Lit(sql.Int(9000))),
		),
		sql.And(
			sql.Lt(sql.Col("l_discount"), sql.Lit(sql.Float(0.07))),
			sql.Lt(sql.Col("l_quantity"), sql.Lit(sql.Float(24))),
		),
	)
	return sql.GroupBy(sql.Where(queries.LineitemRelation(w.DB), pred), nil,
		sql.AggSpec{Name: "revenue", Func: sql.AggSum,
			Arg: sql.Mul(sql.Col("l_extendedprice"), sql.Col("l_discount"))},
		sql.AggSpec{Name: "n", Func: sql.AggCount},
	)
}

// vectorWorkload builds the columnar reconstruction stress: the same
// Q6-shaped predicate under a discounted-price projection that returns
// every surviving row. Fully vectorizable, but the output is rows, so the
// columnar path pays row→batch conversion in and batch→row reconstruction
// out with no aggregate to amortize them — the X100 caveat the physical
// layer's numbers should show honestly rather than hide.
func vectorWorkload(w *queries.Workload) sql.Plan {
	one := sql.Lit(sql.Float(1))
	pred := sql.And(
		sql.Gt(sql.Col("l_quantity"), sql.Lit(sql.Float(10))),
		sql.And(
			sql.Lt(sql.Col("l_discount"), sql.Lit(sql.Float(0.07))),
			sql.Le(sql.Col("l_shipdate"), sql.Lit(sql.Int(9000))),
		),
	)
	return sql.Project(sql.Where(queries.LineitemRelation(w.DB), pred),
		sql.NamedExpr{Name: "okey", Expr: sql.Col("l_orderkey")},
		sql.NamedExpr{Name: "disc_price",
			Expr: sql.Mul(sql.Col("l_extendedprice"), sql.Sub(one, sql.Col("l_discount")))},
		sql.NamedExpr{Name: "charged",
			Expr: sql.Mul(sql.Mul(sql.Col("l_extendedprice"), sql.Sub(one, sql.Col("l_discount"))),
				sql.Add(one, sql.Col("l_tax")))},
	)
}

// limitWorkload builds the limit-shaped plan: the first 100 rows of a
// two-column projection over lineitem.
func limitWorkload(w *queries.Workload) sql.Plan {
	return sql.Limit(sql.Project(queries.LineitemRelation(w.DB),
		sql.NamedExpr{Name: "okey", Expr: sql.Col("l_orderkey")},
		sql.NamedExpr{Name: "price", Expr: sql.Col("l_extendedprice")},
	), 100)
}

func runOptimizerWorkload(name, query string, lineitems int, plan sql.Plan, reps int) (OptimizerRow, error) {
	rawDelta, rawRows, rawTime, err := runPlan(plan, sql.ExecuteRaw, reps)
	if err != nil {
		return OptimizerRow{}, fmt.Errorf("raw: %w", err)
	}
	optDelta, optRows, optTime, err := runPlan(plan, sql.Execute, reps)
	if err != nil {
		return OptimizerRow{}, fmt.Errorf("optimized: %w", err)
	}
	if err := sameRowMultiset(rawRows, optRows); err != nil {
		return OptimizerRow{}, err
	}
	optimized, rewrites := sql.Optimize(plan)
	row := OptimizerRow{
		Workload:         name,
		Query:            query,
		Lineitems:        lineitems,
		RawShuffled:      rawDelta.RecordsShuffled,
		OptShuffled:      optDelta.RecordsShuffled,
		RawMapped:        rawDelta.RecordsMapped,
		OptMapped:        optDelta.RecordsMapped,
		RawCells:         sql.ScanCells(plan),
		OptCells:         sql.ScanCells(optimized),
		RawTime:          rawTime,
		OptTime:          optTime,
		RecordsBatched:   optDelta.RecordsBatched,
		BatchesProcessed: optDelta.BatchesProcessed,
		Rewrites:         len(rewrites),
	}
	if row.RawShuffled > 0 {
		row.ShuffleReduction = 1 - float64(row.OptShuffled)/float64(row.RawShuffled)
	}
	if row.RawMapped > 0 {
		row.MapReduction = 1 - float64(row.OptMapped)/float64(row.RawMapped)
	}
	if row.RawCells > 0 {
		row.CellReduction = 1 - float64(row.OptCells)/float64(row.RawCells)
	}
	return row, nil
}

// runPlan executes the plan reps times, each on a fresh engine through the
// given entry point, and returns the first run's metrics delta and rows
// with the fastest wall time observed.
func runPlan(plan sql.Plan, exec func(*mapreduce.Engine, sql.Plan) ([]sql.Row, sql.Schema, error), reps int) (mapreduce.MetricsSnapshot, []sql.Row, time.Duration, error) {
	var (
		delta mapreduce.MetricsSnapshot
		rows  []sql.Row
		best  time.Duration
	)
	for i := 0; i < reps; i++ {
		eng := mapreduce.NewEngine()
		before := eng.Metrics()
		start := time.Now() //upa:allow(seededdeterminism) wall-clock measurement of real elapsed time, not a scheduling decision
		out, _, err := exec(eng, plan)
		elapsed := time.Since(start) //upa:allow(seededdeterminism) wall-clock measurement of real elapsed time, not a scheduling decision
		if err != nil {
			return mapreduce.MetricsSnapshot{}, nil, 0, err
		}
		if i == 0 {
			delta, rows, best = eng.Metrics().Sub(before), out, elapsed
			continue
		}
		best = min(best, elapsed)
	}
	return delta, rows, best, nil
}

// sameRowMultiset checks the raw and optimized executions returned the
// identical row multiset.
func sameRowMultiset(raw, opt []sql.Row) error {
	if len(raw) != len(opt) {
		return fmt.Errorf("paths disagree: raw returned %d rows, optimized %d", len(raw), len(opt))
	}
	render := func(rows []sql.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			parts := make([]string, len(r))
			for j, v := range r {
				parts[j] = v.String()
			}
			out[i] = strings.Join(parts, "\x1f")
		}
		sort.Strings(out)
		return out
	}
	a, b := render(raw), render(opt)
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("paths disagree on row %d: raw %q, optimized %q", i, a[i], b[i])
		}
	}
	return nil
}

// RenderOptimizer renders the optimizer experiment.
func RenderOptimizer(rows []OptimizerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan optimizer: raw vs optimized execution (records shuffled / mapped, scan cells)\n")
	fmt.Fprintf(&b, "%-18s %-20s %10s %10s %9s %9s %9s %8s %8s %10s %8s %8s\n",
		"workload", "query", "raw_shuf", "opt_shuf",
		"shuf_red", "map_red", "cell_red", "raw_ms", "opt_ms",
		"batched", "batches", "rewrites")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-20s %10d %10d %8.1f%% %8.1f%% %8.1f%% %8.2f %8.2f %10d %8d %8d\n",
			r.Workload, r.Query, r.RawShuffled, r.OptShuffled,
			100*r.ShuffleReduction, 100*r.MapReduction, 100*r.CellReduction,
			float64(r.RawTime)/float64(time.Millisecond),
			float64(r.OptTime)/float64(time.Millisecond),
			r.RecordsBatched, r.BatchesProcessed,
			r.Rewrites)
	}
	return b.String()
}

package sql

import (
	"fmt"

	"upa/internal/core"
	"upa/internal/mapreduce"
)

// CompileDPCount lowers a global counting plan into a UPA query protecting
// the rows of the named base table. The returned records are the protected
// rows' influences, one per row in table order: row i's exact join fan-out
// through the plan (how many output tuples vanish if the row does), computed
// in a single engine execution by threading a hidden row-index column
// through the Filter/Join tree and counting the surviving tuples per index.
// The query's Mapper is the identity on that number, so M(x) is the record
// itself: no tuple is carried and no lookup table is broadcast, and its
// MapInto adds the number into an accumulator in place. The returned
// slice is freshly allocated and owned by the caller.
//
// Together with core.Run this turns any supported SQL count into an
// end-to-end iDP release — the SparkSQL-query path of the paper's
// evaluation. The supported fragment matches FLEX's (§II-B) so the two are
// directly comparable: a global single-Count aggregate over Filters, Joins
// and Scans, with the protected table appearing exactly once.
//
// The influence vector is computed against the full input and reused for
// the sampled neighbouring datasets: removing a protected row removes exactly
// its own record and no other row's influence changes; addition
// neighbours need a domain-aware rebinding and are not sampled here (pass a
// nil domain to core.Run).
//
// The influence plan is the logical GROUP BY __protected_idx, COUNT(*) over
// the tagged tree. Its interior is optimized and compiled like any plan's
// (columnar where it vectorizes), which is safe for the DP semantics by
// construction: the hidden index column is tagged onto the protected scan
// *before* optimization and is a group-by key of the influence plan, so
// projection pruning keeps it live down to the scan, and no rule drops or
// duplicates it; and because every rewrite preserves the plan's output row
// multiset, each protected row's per-index output count — hence the
// influence vector, the sampled neighbour set, and the ε charge — is
// identical to the raw plan's. Only the root is lowered specially: the group
// key is a dense row position, so instead of a string-keyed hash aggregate
// and its shuffle, tallyInfluence counts into a []int64 (see there) — per
// join key, without joining, where the plan's shape allows (keycount.go).
// CompileDPCountRaw is the as-written reference the equivalence tests
// compare against.
func CompileDPCount(eng *mapreduce.Engine, plan Plan, protectedTable string) (core.Query[int64], []int64, error) {
	return compileDPCount(eng, plan, protectedTable, interiorColumnar)
}

// CompileDPCountRaw is CompileDPCount with the influence plan's interior
// executed as written (no optimizer rewrites, row-at-a-time) — the
// reference of the DP equivalence regression tests.
func CompileDPCountRaw(eng *mapreduce.Engine, plan Plan, protectedTable string) (core.Query[int64], []int64, error) {
	return compileDPCount(eng, plan, protectedTable, interiorRaw)
}

// dpIdxCol is the hidden row-index column threaded through the protected
// scan during influence compilation.
const dpIdxCol = "__protected_idx"

func compileDPCount(eng *mapreduce.Engine, plan Plan, protectedTable string, in interior) (core.Query[int64], []int64, error) {
	var zero core.Query[int64]
	// The same structural validation admission control runs pre-charge;
	// passing it here guarantees the unexported helpers below cannot fail on
	// shape (the remaining error paths are execution errors).
	if err := SupportsDPCount(plan, protectedTable); err != nil {
		return zero, nil, err
	}
	agg, err := countRootOf(plan)
	if err != nil {
		return zero, nil, err
	}
	protected := findScans(agg.Input, protectedTable)[0]
	tagged, err := tagProtectedScan(agg.Input, protected, dpIdxCol)
	if err != nil {
		return zero, nil, err
	}
	perRow := GroupBy(tagged, []string{dpIdxCol}, AggSpec{Name: "influence", Func: AggCount})
	compiled, c := in.lower(eng, perRow)
	influence, err := c.tallyInfluence(compiled, protected.numRows())
	if err != nil {
		return zero, nil, err
	}
	q := core.Query[int64]{
		Name:      "dpcount:" + protectedTable,
		StateDim:  1,
		OutputDim: 1,
		Map:       func(v int64) core.State { return core.State{float64(v)} },
		// The fold of the remaining influences adds each one in place,
		// bit-equal to VectorAdd(acc, Map(v)), allocating nothing per row.
		MapInto: func(acc core.State, v int64) { acc[0] += float64(v) },
	}
	return q, influence, nil
}

// tallyInfluence executes an influence plan — GROUP BY the hidden index,
// COUNT(*) — and returns the count per protected row, zero for a row no
// output tuple descends from. A columnar plan keyCountPlan accepts is
// counted per key; any other plan's interior compiles as usual, and its
// root does not run as an aggregate. The group key is a row position in
// [0, n), so each engine task counts its partition's surviving tuples into
// its own []int64 of length n and returns it as its one output record, and
// the driver adds the partials up: O(rows) integer passes, no key rendering,
// no per-group accumulator, no shuffle. A task that is retried rebuilds its
// partial from scratch and the engine keeps one result per task, so a retry
// cannot count a tuple twice.
func (c *compiler) tallyInfluence(plan Plan, n int) ([]int64, error) {
	if kc, ok := keyCountPlan(plan); ok && c.columnar {
		return c.countInfluence(kc, n)
	}
	agg, ok := plan.(*AggregatePlan)
	if !ok {
		return nil, fmt.Errorf("sql: internal: influence plan root is %T", plan)
	}
	in, err := agg.Input.Schema()
	if err != nil {
		return nil, err
	}
	idx, err := in.IndexOf(dpIdxCol)
	if err != nil {
		return nil, err
	}
	if in[idx].Kind != KindInt {
		return nil, fmt.Errorf("sql: influence key has kind %s", in[idx].Kind)
	}
	ds, err := c.compile(agg.Input)
	if err != nil {
		return nil, err
	}
	partials := mapreduce.MapPartitions(ds, func(_ int, rows []Row) ([][]int64, error) {
		tally := make([]int64, n)
		for _, r := range rows {
			i, ok := r[idx].AsInt()
			if !ok {
				return nil, fmt.Errorf("sql: influence key has kind %s", r[idx].Kind())
			}
			if err := tallyAdd(tally, i, 1); err != nil {
				return nil, err
			}
		}
		return [][]int64{tally}, nil
	})
	collected, err := partials.Collect()
	if err != nil {
		return nil, err
	}
	influence := make([]int64, n)
	for _, partial := range collected {
		for i, count := range partial {
			influence[i] += count
		}
	}
	return influence, nil
}

// countRootOf unwraps Limit/OrderBy above the counting aggregate.
func countRootOf(plan Plan) (*AggregatePlan, error) {
	for {
		switch p := plan.(type) {
		case *LimitPlan:
			plan = p.Input
		case *OrderByPlan:
			plan = p.Input
		case *AggregatePlan:
			return p, nil
		default:
			return nil, fmt.Errorf("sql: no counting aggregate at plan root")
		}
	}
}

// findScans returns every scan of the named table beneath plan.
func findScans(plan Plan, name string) []*ScanPlan {
	switch p := plan.(type) {
	case *ScanPlan:
		if p.Name == name {
			return []*ScanPlan{p}
		}
		return nil
	case *FilterPlan:
		return findScans(p.Input, name)
	case *JoinPlan:
		return append(findScans(p.Left, name), findScans(p.Right, name)...)
	default:
		return nil
	}
}

// tagProtectedScan rewrites the Filter/Join tree, replacing the protected
// scan with a view of it that also carries the hidden index column — no row
// is copied. Any other node kind in the interior would drop or reshape
// columns, so it is rejected.
func tagProtectedScan(plan Plan, protected *ScanPlan, idxCol string) (Plan, error) {
	switch p := plan.(type) {
	case *ScanPlan:
		if p != protected {
			return p, nil
		}
		cols := make(Schema, 0, len(p.Cols)+1)
		cols = append(cols, p.Cols...)
		cols = append(cols, Column{Name: idxCol, Kind: KindInt})
		pick := make([]int, len(cols))
		for i := range p.Cols {
			pick[i] = i
		}
		pick[len(p.Cols)] = tagCol
		return p.derive(cols, pick), nil
	case *FilterPlan:
		in, err := tagProtectedScan(p.Input, protected, idxCol)
		if err != nil {
			return nil, err
		}
		return Where(in, p.Pred), nil
	case *JoinPlan:
		left, err := tagProtectedScan(p.Left, protected, idxCol)
		if err != nil {
			return nil, err
		}
		right, err := tagProtectedScan(p.Right, protected, idxCol)
		if err != nil {
			return nil, err
		}
		return JoinOn(left, p.LeftKey, right, p.RightKey), nil
	default:
		return nil, fmt.Errorf("sql: DP compilation supports Filter/Join/Scan interiors, found %T", plan)
	}
}

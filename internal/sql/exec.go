package sql

import (
	"fmt"
	"math"

	"upa/internal/mapreduce"
)

// Execute compiles a logical plan onto the engine and runs it: scans become
// partitioned datasets, filters/projections narrow transformations, joins
// engine hash joins (with their shuffle accounting), and aggregations
// ReduceByKey jobs. It returns the result rows and their schema.
//
// Every plan is first rewritten by Optimize, so no caller pays for work a
// rule can eliminate (pushdown, pruning, join ordering/sizing — see
// optimize.go), and then lowered through the physical layer (physical.go):
// vectorizable Filter/Project/Aggregate chains over a scan run columnar via
// colbatch kernels, everything else row-at-a-time. Both choices produce
// byte-identical results; use ExecuteRowOnly to force the row path and
// ExecuteRaw to run the tree as written.
func Execute(eng *mapreduce.Engine, plan Plan) ([]Row, Schema, error) {
	return interiorColumnar.execute(eng, plan)
}

// ExecuteRowOnly runs the optimized plan entirely row-at-a-time — the
// pre-physical-layer behaviour. It is the measurement baseline for the
// columnar path: equivalence tests and the bench columnar sweep compare
// Execute against ExecuteRowOnly on the same plan.
func ExecuteRowOnly(eng *mapreduce.Engine, plan Plan) ([]Row, Schema, error) {
	return interiorRowOnly.execute(eng, plan)
}

// ExecuteRaw compiles the plan tree exactly as the caller built it, with no
// optimizer rewrites and no columnar execution. It exists as the
// measurement baseline: equivalence tests and the bench "optimizer"
// experiment compare Execute against ExecuteRaw on the same plan.
func ExecuteRaw(eng *mapreduce.Engine, plan Plan) ([]Row, Schema, error) {
	return interiorRaw.execute(eng, plan)
}

// interior is how an entry point runs the tree under a plan's root: as
// rewritten by Optimize or as written, with vectorizable chains columnar or
// everything row-at-a-time. The three in use are shared by the Execute and
// the CompileDPCount families.
type interior struct{ optimize, columnar bool }

var (
	interiorColumnar = interior{optimize: true, columnar: true}
	interiorRowOnly  = interior{optimize: true}
	interiorRaw      = interior{}
)

// lower returns the tree the interior executes for plan and a compiler set
// to its strategy.
func (in interior) lower(eng *mapreduce.Engine, plan Plan) (Plan, *compiler) {
	if in.optimize {
		plan, _ = Optimize(plan)
	}
	return plan, &compiler{eng: eng, columnar: in.columnar}
}

// execute runs plan, reporting schema and errors against the tree the
// caller built.
func (in interior) execute(eng *mapreduce.Engine, plan Plan) ([]Row, Schema, error) {
	schema, err := plan.Schema()
	if err != nil {
		return nil, nil, err
	}
	compiled, c := in.lower(eng, plan)
	ds, err := c.compile(compiled)
	if err != nil {
		return nil, nil, err
	}
	rows, err := ds.Collect()
	if err != nil {
		return nil, nil, err
	}
	return rows, schema, nil
}

// ExecuteCount is a convenience for global-count plans: it returns the
// single integer of a one-row, one-column result.
func ExecuteCount(eng *mapreduce.Engine, plan Plan) (int64, error) {
	rows, schema, err := Execute(eng, plan)
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 || len(schema) != 1 {
		return 0, fmt.Errorf("sql: plan is not a global single-aggregate (got %d rows × %d cols)",
			len(rows), len(schema))
	}
	v, ok := rows[0][0].AsInt()
	if !ok {
		f, okF := rows[0][0].AsFloat()
		if !okF {
			return 0, fmt.Errorf("sql: count result is %s", rows[0][0].Kind())
		}
		v = int64(f)
	}
	return v, nil
}

// compiler lowers logical plans onto the engine. When columnar is set it
// routes vectorizable subtrees (see physical.go for the shared eligibility
// predicates) through the fused batch pipeline in colexec.go; otherwise
// everything compiles row-at-a-time.
type compiler struct {
	eng      *mapreduce.Engine
	columnar bool
}

// scanParts picks the partition count for a scan — shared by the row and
// columnar paths so both produce identically-partitioned datasets (which in
// turn keeps shuffle merge order, and therefore float folds, identical).
func scanParts(eng *mapreduce.Engine, p *ScanPlan) int {
	parts := eng.Workers()
	if parts > p.numRows() {
		parts = p.numRows()
	}
	if parts < 1 {
		parts = 1
	}
	return parts
}

func (c *compiler) compile(plan Plan) (*mapreduce.Dataset[Row], error) {
	eng := c.eng
	if c.columnar {
		switch p := plan.(type) {
		case *AggregatePlan:
			if vectorizableAggregate(p) {
				return c.compileColumnarAggregate(p)
			}
		case *FilterPlan, *ProjectPlan:
			if vectorizableChain(plan) {
				return c.compileColumnarChain(plan)
			}
		}
	}
	switch p := plan.(type) {
	case *ScanPlan:
		rows, err := p.rows()
		if err != nil {
			return nil, err
		}
		return mapreduce.FromSlice(eng, rows, scanParts(eng, p))

	case *FilterPlan:
		in, err := p.Input.Schema()
		if err != nil {
			return nil, err
		}
		pred, kind, err := p.Pred.bind(in)
		if err != nil {
			return nil, err
		}
		if kind != KindBool {
			return nil, fmt.Errorf("sql: filter predicate is %s, want bool", kind)
		}
		ds, err := c.compile(p.Input)
		if err != nil {
			return nil, err
		}
		// Predicate errors surface via MapPartitions rather than Filter so
		// they abort the job instead of being swallowed.
		return mapreduce.MapPartitions(ds, func(_ int, rows []Row) ([]Row, error) {
			out := make([]Row, 0, len(rows))
			for _, r := range rows {
				v, err := pred(r)
				if err != nil {
					return nil, err
				}
				if b, _ := v.AsBool(); b {
					out = append(out, r)
				}
			}
			return out, nil
		}), nil

	case *ProjectPlan:
		in, err := p.Input.Schema()
		if err != nil {
			return nil, err
		}
		bound := make([]boundExpr, len(p.Exprs))
		for i, ne := range p.Exprs {
			b, _, err := ne.Expr.bind(in)
			if err != nil {
				return nil, err
			}
			bound[i] = b
		}
		ds, err := c.compile(p.Input)
		if err != nil {
			return nil, err
		}
		return mapreduce.MapPartitions(ds, func(_ int, rows []Row) ([]Row, error) {
			out := make([]Row, len(rows))
			for ri, r := range rows {
				row := make(Row, len(bound))
				for i, b := range bound {
					v, err := b(r)
					if err != nil {
						return nil, err
					}
					row[i] = v
				}
				out[ri] = row
			}
			return out, nil
		}), nil

	case *JoinPlan:
		ls, err := p.Left.Schema()
		if err != nil {
			return nil, err
		}
		rs, err := p.Right.Schema()
		if err != nil {
			return nil, err
		}
		li, err := ls.IndexOf(p.LeftKey)
		if err != nil {
			return nil, err
		}
		ri, err := rs.IndexOf(p.RightKey)
		if err != nil {
			return nil, err
		}
		left, err := c.compile(p.Left)
		if err != nil {
			return nil, err
		}
		right, err := c.compile(p.Right)
		if err != nil {
			return nil, err
		}
		keyedLeft := mapreduce.KeyBy(left, func(r Row) Value { return r[li] })
		keyedRight := mapreduce.KeyBy(right, func(r Row) Value { return r[ri] })
		joined, err := mapreduce.Join(keyedLeft, keyedRight)
		if err != nil {
			return nil, err
		}
		return mapreduce.Map(joined, func(p mapreduce.Pair[Value, mapreduce.Joined[Row, Row]]) Row {
			out := make(Row, 0, len(p.Value.Left)+len(p.Value.Right))
			out = append(out, p.Value.Left...)
			out = append(out, p.Value.Right...)
			return out
		}), nil

	case *AggregatePlan:
		return c.compileAggregate(p)

	case *OrderByPlan:
		return c.compileOrderBy(p)

	case *DistinctPlan:
		return c.compileDistinct(p)

	case *LimitPlan:
		ds, err := c.compile(p.Input)
		if err != nil {
			return nil, err
		}
		if p.N < 0 {
			return nil, fmt.Errorf("sql: negative limit %d", p.N)
		}
		n := p.N
		head := func(_ int, rows []Row) ([]Row, error) {
			if len(rows) > n {
				rows = rows[:n]
			}
			out := make([]Row, len(rows))
			copy(out, rows)
			return out, nil
		}
		// The global prefix of N rows draws at most N from each partition,
		// so take a per-partition head first and repartition only the
		// survivors: the single-partition shuffle moves at most N × parts
		// rows instead of the whole dataset.
		single, err := mapreduce.Repartition(mapreduce.MapPartitions(ds, head), 1)
		if err != nil {
			return nil, err
		}
		return mapreduce.MapPartitions(single, head), nil

	default:
		return nil, fmt.Errorf("sql: unknown plan node %T", plan)
	}
}

// aggState is the mergeable accumulator of one group: one slot per AggSpec.
// Fields are exported so the accumulator survives the engine's gob-framed
// spill files when a shuffle exceeds the memory budget.
type aggState struct {
	Count int64
	Sums  []float64
	Mins  []float64
	Maxs  []float64
}

func (c *compiler) compileAggregate(p *AggregatePlan) (*mapreduce.Dataset[Row], error) {
	eng := c.eng
	in, err := p.Input.Schema()
	if err != nil {
		return nil, err
	}
	if len(p.Aggs) == 0 {
		return nil, fmt.Errorf("sql: aggregate without aggregate functions")
	}
	groupIdx := make([]int, len(p.GroupBy))
	for i, g := range p.GroupBy {
		idx, err := in.IndexOf(g)
		if err != nil {
			return nil, err
		}
		groupIdx[i] = idx
	}
	args := make([]boundExpr, len(p.Aggs))
	for i, a := range p.Aggs {
		if a.Func == AggCount {
			continue
		}
		if a.Arg == nil {
			return nil, fmt.Errorf("sql: aggregate %s(%s) needs an argument", a.Func, a.Name)
		}
		b, kind, err := a.Arg.bind(in)
		if err != nil {
			return nil, err
		}
		if !numeric(kind) {
			return nil, fmt.Errorf("sql: %s over %s argument", a.Func, kind)
		}
		args[i] = b
	}

	ds, err := c.compile(p.Input)
	if err != nil {
		return nil, err
	}

	nAggs := len(p.Aggs)
	toState := func(r Row) (mapreduce.Pair[string, aggState], error) {
		st := aggState{
			Count: 1,
			Sums:  make([]float64, nAggs),
			Mins:  make([]float64, nAggs),
			Maxs:  make([]float64, nAggs),
		}
		for i, b := range args {
			if b == nil {
				continue
			}
			v, err := b(r)
			if err != nil {
				return mapreduce.Pair[string, aggState]{}, err
			}
			f, _ := v.AsFloat()
			st.Sums[i] = f
			st.Mins[i] = f
			st.Maxs[i] = f
		}
		key := ""
		for _, gi := range groupIdx {
			key += r[gi].String() + "\x1f"
		}
		return mapreduce.Pair[string, aggState]{Key: key, Value: st}, nil
	}

	// Keep the group-key row values for output reconstruction.
	type keyed struct {
		Pair mapreduce.Pair[string, aggState]
		Keys Row
	}
	keyedDS := mapreduce.MapPartitions(ds, func(_ int, rows []Row) ([]keyed, error) {
		out := make([]keyed, len(rows))
		for i, r := range rows {
			pair, err := toState(r)
			if err != nil {
				return nil, err
			}
			keys := make(Row, len(groupIdx))
			for j, gi := range groupIdx {
				keys[j] = r[gi]
			}
			out[i] = keyed{Pair: pair, Keys: keys}
		}
		return out, nil
	})

	pairs := mapreduce.Map(keyedDS, func(k keyed) mapreduce.Pair[string, groupAcc] {
		return mapreduce.Pair[string, groupAcc]{
			Key:   k.Pair.Key,
			Value: groupAcc{State: k.Pair.Value, Keys: k.Keys},
		}
	})
	return finalizeAggregate(eng, pairs, p.Aggs, len(p.GroupBy) == 0)
}

// finalizeAggregate merges per-group accumulators and renders output rows.
// It is shared by the row and columnar aggregate paths: both feed groupAcc
// pairs through the same ReduceByKey(mergeGroups) and the same rendering,
// which is what makes the two paths byte-identical downstream of the
// partial aggregation.
func finalizeAggregate(eng *mapreduce.Engine, pairs *mapreduce.Dataset[mapreduce.Pair[string, groupAcc]], specs []AggSpec, global bool) (*mapreduce.Dataset[Row], error) {
	merged := mapreduce.ReduceByKey(pairs, mergeGroups)

	out := mapreduce.Map(merged, func(pr mapreduce.Pair[string, groupAcc]) Row {
		st := pr.Value.State
		row := make(Row, 0, len(pr.Value.Keys)+len(specs))
		row = append(row, pr.Value.Keys...)
		for i, a := range specs {
			switch a.Func {
			case AggCount:
				row = append(row, Int(st.Count))
			case AggSum:
				row = append(row, Float(st.Sums[i]))
			case AggAvg:
				if st.Count == 0 {
					row = append(row, Float(math.NaN()))
				} else {
					row = append(row, Float(st.Sums[i]/float64(st.Count)))
				}
			case AggMin:
				row = append(row, Float(st.Mins[i]))
			case AggMax:
				row = append(row, Float(st.Maxs[i]))
			}
		}
		return row
	})

	if global {
		return globalAggregateFallback(eng, out, specs)
	}
	return out, nil
}

// groupAcc carries the accumulator plus the group's key values.
type groupAcc struct {
	State aggState
	Keys  Row
}

// mergeGroups is the commutative, associative reducer over group
// accumulators.
func mergeGroups(a, b groupAcc) groupAcc {
	n := len(a.State.Sums)
	out := groupAcc{
		Keys: a.Keys,
		State: aggState{
			Count: a.State.Count + b.State.Count,
			Sums:  make([]float64, n),
			Mins:  make([]float64, n),
			Maxs:  make([]float64, n),
		},
	}
	for i := 0; i < n; i++ {
		out.State.Sums[i] = a.State.Sums[i] + b.State.Sums[i]
		out.State.Mins[i] = math.Min(a.State.Mins[i], b.State.Mins[i])
		out.State.Maxs[i] = math.Max(a.State.Maxs[i], b.State.Maxs[i])
	}
	return out
}

// globalAggregateFallback handles the empty-input global aggregate: SQL
// semantics return one row (count 0) even with no input rows.
func globalAggregateFallback(eng *mapreduce.Engine, out *mapreduce.Dataset[Row], specs []AggSpec) (*mapreduce.Dataset[Row], error) {
	rows, err := out.Collect()
	if err != nil {
		return nil, err
	}
	if len(rows) > 0 {
		return mapreduce.FromPartitions(eng, [][]Row{rows})
	}
	row := make(Row, len(specs))
	for i, a := range specs {
		if a.Func == AggCount {
			row[i] = Int(0)
		} else {
			row[i] = Float(0)
		}
	}
	return mapreduce.FromPartitions(eng, [][]Row{{row}})
}

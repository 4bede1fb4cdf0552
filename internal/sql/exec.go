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
// vectorizable Filter/Project chains over a scan run columnar via colbatch
// kernels, everything else row-at-a-time. An Aggregate folds whichever of
// the two feeds it through the one accumulator (aggFold), so its result does
// not depend on the choice. ExecuteRaw runs the tree as written.
func Execute(eng *mapreduce.Engine, plan Plan) ([]Row, Schema, error) {
	return interiorColumnar.execute(eng, plan)
}

// ExecuteRaw compiles the plan tree exactly as the caller built it, with no
// optimizer rewrites and no columnar execution. It is the reference every
// other result is judged against: equivalence tests and the bench
// "optimizer" experiment compare Execute against ExecuteRaw on the same plan.
func ExecuteRaw(eng *mapreduce.Engine, plan Plan) ([]Row, Schema, error) {
	return interiorRaw.execute(eng, plan)
}

// interior is how an entry point runs the tree under a plan's root: as
// rewritten by Optimize with vectorizable chains columnar, or as written and
// row-at-a-time. The Execute and the CompileDPCount families share the two.
type interior bool

const (
	interiorColumnar interior = true
	interiorRaw      interior = false
)

// lower returns the tree the interior executes for plan and a compiler set
// to its strategy.
func (in interior) lower(eng *mapreduce.Engine, plan Plan) (Plan, *compiler) {
	if in == interiorRaw {
		return plan, &compiler{eng: eng}
	}
	plan, _ = Optimize(plan)
	return plan, &compiler{eng: eng, columnar: true}
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
// everything compiles row-at-a-time. The flag is set by interior.lower alone;
// the equivalence tests clear it on an optimized plan to hold the kernels to
// the row operators.
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
		switch plan.(type) {
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

// aggFold is the per-partition partial aggregation: one accumulator per
// group, in first-seen order. It is the only place a tuple is folded into a
// group, whichever feeder drives it — foldRows over a compiled row input,
// foldBatches (colexec.go) over a resident image — so the partials of a
// partition, and everything finalizeAggregate derives from them, are the same
// bytes by construction: the same float operations in the same sequence, one
// partial per key in first-seen order.
type aggFold struct {
	acc   map[string]*groupAcc
	order []string
	key   []byte
	// keys and args are the feeder's scratch for the tuple being added: the
	// group-key values and one argument per AggSpec. COUNT has none; its
	// slot stays zero, here as in mergeGroups.
	keys Row
	args []float64
}

func newAggFold(p *AggregatePlan) *aggFold {
	return &aggFold{
		acc:  make(map[string]*groupAcc),
		keys: make(Row, len(p.GroupBy)),
		args: make([]float64, len(p.Aggs)),
	}
}

// add folds the tuple in f.keys and f.args into its group. A group starts
// as its first tuple rather than as zero plus it: 0 + -0 is +0.
func (f *aggFold) add() {
	f.key = appendRowKey(f.key[:0], f.keys)
	g, ok := f.acc[string(f.key)]
	if !ok {
		n := len(f.args)
		g = &groupAcc{
			Keys:  append(Row(nil), f.keys...),
			State: aggState{Count: 1, Sums: make([]float64, n), Mins: make([]float64, n), Maxs: make([]float64, n)},
		}
		copy(g.State.Sums, f.args)
		copy(g.State.Mins, f.args)
		copy(g.State.Maxs, f.args)
		key := string(f.key)
		f.acc[key] = g
		f.order = append(f.order, key)
		return
	}
	g.State.Count++
	for i, v := range f.args {
		g.State.Sums[i] += v
		g.State.Mins[i] = math.Min(g.State.Mins[i], v)
		g.State.Maxs[i] = math.Max(g.State.Maxs[i], v)
	}
}

// partials emits one accumulator per group in first-seen order.
func (f *aggFold) partials() []mapreduce.Pair[string, groupAcc] {
	out := make([]mapreduce.Pair[string, groupAcc], len(f.order))
	for i, k := range f.order {
		out[i] = mapreduce.Pair[string, groupAcc]{Key: k, Value: *f.acc[k]}
	}
	return out
}

// compileAggregate lowers an AggregatePlan: a per-partition aggFold, fed by
// batches when the input chain vectorizes and by rows otherwise, then the
// ReduceByKey and rendering of finalizeAggregate.
func (c *compiler) compileAggregate(p *AggregatePlan) (*mapreduce.Dataset[Row], error) {
	pairs, err := c.partialAggregate(p)
	if err != nil {
		return nil, err
	}
	return finalizeAggregate(c.eng, pairs, p.Aggs, len(p.GroupBy) == 0)
}

// partialAggregate validates the aggregate against its input schema and
// returns each partition's partials.
func (c *compiler) partialAggregate(p *AggregatePlan) (*mapreduce.Dataset[mapreduce.Pair[string, groupAcc]], error) {
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
	for _, a := range p.Aggs {
		if a.Func != AggCount && a.Arg == nil {
			return nil, fmt.Errorf("sql: aggregate %s(%s) needs an argument", a.Func, a.Name)
		}
	}
	if c.columnar && vectorizableAggregate(p) {
		return c.foldBatches(p, in, groupIdx)
	}
	return c.foldRows(p, in, groupIdx)
}

// foldRows feeds the fold from the compiled row input: bound argument
// expressions, one tuple per row.
func (c *compiler) foldRows(p *AggregatePlan, in Schema, groupIdx []int) (*mapreduce.Dataset[mapreduce.Pair[string, groupAcc]], error) {
	args := make([]boundExpr, len(p.Aggs))
	for i, a := range p.Aggs {
		if a.Func == AggCount {
			continue
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
	return mapreduce.MapPartitions(ds, func(_ int, rows []Row) ([]mapreduce.Pair[string, groupAcc], error) {
		f := newAggFold(p)
		for _, r := range rows {
			for j, gi := range groupIdx {
				f.keys[j] = r[gi]
			}
			for i, b := range args {
				if b == nil {
					continue
				}
				v, err := b(r)
				if err != nil {
					return nil, err
				}
				f.args[i], _ = v.AsFloat()
			}
			f.add()
		}
		return f.partials(), nil
	}), nil
}

// finalizeAggregate merges the partitions' partials per group and renders
// output rows.
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

package sql

import (
	"fmt"

	"upa/internal/flex"
	"upa/internal/mapreduce"
	"upa/internal/relation"
)

// FLEXPlan extracts the static model FLEX analyzes from a relational plan:
// whether the query is a supported count, and for every Join operator the
// column statistics of the two join columns. Faithful to FLEX's documented
// blind spots (§II-B of the UPA paper), the statistics are computed with
// every Filter stripped from the plan — FLEX "does not consider the effect
// of join condition (i.e., Filter)" — and the actual join keys are never
// intersected.
//
// The static walk deliberately stays on the RAW plan: FLEX models the query
// as the analyst wrote it, so an optimizer rewrite must not change which
// joins it sees or in what shape. Only the *execution* that computes each
// key column's statistics (keyStats, via Execute) routes through the
// optimizer — it affects how fast the statistics are computed, never their
// values, because Optimize preserves the output row multiset.
func FLEXPlan(eng *mapreduce.Engine, name string, plan Plan) (flex.Plan, error) {
	out := flex.Plan{Name: name, CountQuery: isGlobalCount(plan)}
	if !out.CountQuery {
		return out, nil
	}
	joins, err := collectJoins(eng, plan)
	if err != nil {
		return flex.Plan{}, err
	}
	out.Joins = joins
	return out, nil
}

// isGlobalCount reports whether the plan's root (below any Limit) is a
// global single-Count aggregate — the only fragment FLEX supports.
func isGlobalCount(plan Plan) bool {
	for {
		switch p := plan.(type) {
		case *LimitPlan:
			plan = p.Input
		case *OrderByPlan:
			plan = p.Input
		case *AggregatePlan:
			return len(p.GroupBy) == 0 && len(p.Aggs) == 1 && p.Aggs[0].Func == AggCount
		default:
			return false
		}
	}
}

// collectJoins walks the plan and, for every Join, computes the two join
// columns' statistics over the filter-stripped inputs.
func collectJoins(eng *mapreduce.Engine, plan Plan) ([]flex.Join, error) {
	var joins []flex.Join
	var walk func(Plan) error
	walk = func(p Plan) error {
		switch n := p.(type) {
		case *ScanPlan:
			return nil
		case *FilterPlan:
			return walk(n.Input)
		case *ProjectPlan:
			return walk(n.Input)
		case *LimitPlan:
			return walk(n.Input)
		case *AggregatePlan:
			return walk(n.Input)
		case *OrderByPlan:
			return walk(n.Input)
		case *DistinctPlan:
			return walk(n.Input)
		case *JoinPlan:
			if err := walk(n.Left); err != nil {
				return err
			}
			if err := walk(n.Right); err != nil {
				return err
			}
			left, err := keyStats(eng, n.Left, n.LeftKey)
			if err != nil {
				return err
			}
			right, err := keyStats(eng, n.Right, n.RightKey)
			if err != nil {
				return err
			}
			joins = append(joins, flex.Join{Left: left, Right: right})
			return nil
		default:
			return fmt.Errorf("sql: FLEX extraction over unknown node %T", p)
		}
	}
	if err := walk(plan); err != nil {
		return nil, err
	}
	return joins, nil
}

// keyStats computes the key column's statistics over the filter-stripped
// side of a join.
func keyStats(eng *mapreduce.Engine, side Plan, key string) (relation.ColumnStats, error) {
	stripped := stripFilters(side)
	schema, err := stripped.Schema()
	if err != nil {
		return relation.ColumnStats{}, err
	}
	idx, err := schema.IndexOf(key)
	if err != nil {
		return relation.ColumnStats{}, err
	}
	rows, _, err := Execute(eng, stripped)
	if err != nil {
		return relation.ColumnStats{}, err
	}
	return relation.StatsOf(rows, func(r Row) Value { return r[idx] }), nil
}

// stripFilters rewrites the plan with every Filter removed, modelling
// FLEX's filter blindness.
func stripFilters(plan Plan) Plan {
	switch p := plan.(type) {
	case *FilterPlan:
		return stripFilters(p.Input)
	case *ProjectPlan:
		return &ProjectPlan{Input: stripFilters(p.Input), Exprs: p.Exprs}
	case *JoinPlan:
		return &JoinPlan{
			Left: stripFilters(p.Left), Right: stripFilters(p.Right),
			LeftKey: p.LeftKey, RightKey: p.RightKey,
		}
	case *AggregatePlan:
		return &AggregatePlan{Input: stripFilters(p.Input), GroupBy: p.GroupBy, Aggs: p.Aggs}
	case *LimitPlan:
		return &LimitPlan{Input: stripFilters(p.Input), N: p.N}
	case *OrderByPlan:
		return &OrderByPlan{Input: stripFilters(p.Input), Keys: p.Keys}
	case *DistinctPlan:
		return &DistinctPlan{Input: stripFilters(p.Input)}
	default:
		return plan
	}
}

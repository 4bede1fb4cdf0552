package sql

import (
	"fmt"
	"sync"

	"upa/internal/colbatch"
)

// Plan is a logical relational query plan. Build plans with the
// constructors below and run them with Execute.
type Plan interface {
	// Schema returns the plan's output schema.
	Schema() (Schema, error)
	// describe renders the node for diagnostics.
	describe() string
}

// ScanPlan reads a named base relation.
//
// A relation is immutable once planned. The first columnar execution builds
// its image — one typed colbatch vector per column, converted once by the
// strict rowsToBatch — and every later execution, and every scan the
// optimizer or the DP bridge derives from this one, reads that same image.
// The image is never invalidated, so Rows and the values it holds must not
// change after the scan is first handed to Execute, Optimize, Explain or
// CompileDPCount.
type ScanPlan struct {
	// Name labels the relation (used by FLEX extraction diagnostics).
	Name string
	// Cols is the scan's schema.
	Cols Schema
	// Rows is a base relation's tuples. A derived scan holds none: read a
	// scan through numRows, rows and columns, never through this field.
	Rows []Row

	// base and pick are set on a derived scan — projection pruning, the DP
	// bridge's index tag — which is a view of base: pick[i] names the base
	// column behind Cols[i], or tagCol for the row's position in base.
	base *ScanPlan
	pick []int

	// The columnar image of a base relation, built on first use.
	imageOnce sync.Once
	image     []colbatch.Col
	imageErr  error
}

// tagCol, as a pick entry, is the hidden row-index column of the DP bridge:
// an iota over the base relation rather than one of its columns.
const tagCol = -1

// Scan builds a base-relation scan.
func Scan(name string, cols Schema, rows []Row) *ScanPlan {
	return &ScanPlan{Name: name, Cols: cols, Rows: rows}
}

// Schema implements Plan.
func (p *ScanPlan) Schema() (Schema, error) { return p.Cols, nil }

// derive returns a view of the same relation with schema cols, where pick[i]
// is the index in p.Cols of the column behind cols[i], or tagCol. No row is
// copied: the view shares p's base rows and columnar image.
func (p *ScanPlan) derive(cols Schema, pick []int) *ScanPlan {
	if p.base == nil {
		return &ScanPlan{Name: p.Name, Cols: cols, base: p, pick: pick}
	}
	composed := make([]int, len(pick))
	for i, j := range pick {
		if j == tagCol {
			composed[i] = tagCol
		} else {
			composed[i] = p.pick[j]
		}
	}
	return &ScanPlan{Name: p.Name, Cols: cols, base: p.base, pick: composed}
}

// numRows is the relation's row count.
func (p *ScanPlan) numRows() int {
	if p.base != nil {
		return len(p.base.Rows)
	}
	return len(p.Rows)
}

// rows returns the relation's tuples at this scan's width, for the row
// operators (join, sort, limit, the row-at-a-time compiler). A base scan
// hands out Rows itself; a view materialises its columns from the base rows,
// which is the only place a pruned or tagged scan costs a row copy.
func (p *ScanPlan) rows() ([]Row, error) {
	if p.base == nil {
		return p.Rows, nil
	}
	width := len(p.pick)
	cells := make([]Value, len(p.base.Rows)*width)
	out := make([]Row, len(p.base.Rows))
	for i, r := range p.base.Rows {
		if len(r) != len(p.base.Cols) {
			return nil, widthErr(p.base.Cols, r)
		}
		row := cells[i*width : (i+1)*width : (i+1)*width]
		for k, j := range p.pick {
			if j == tagCol {
				row[k] = Int(int64(i))
			} else {
				row[k] = r[j]
			}
		}
		out[i] = row
	}
	return out, nil
}

// columns returns the relation's columnar image at this scan's width: the
// base relation's vectors, shared and read-only, plus a fresh iota vector
// where the scan carries the index tag.
func (p *ScanPlan) columns() ([]colbatch.Col, error) {
	if p.base == nil {
		p.imageOnce.Do(func() {
			b, err := rowsToBatch(p.Cols, p.Rows)
			if err != nil {
				p.imageErr = err
				return
			}
			p.image = b.Cols
		})
		return p.image, p.imageErr
	}
	image, err := p.base.columns()
	if err != nil {
		return nil, err
	}
	cols := make([]colbatch.Col, len(p.pick))
	for k, j := range p.pick {
		if j != tagCol {
			cols[k] = image[j]
			continue
		}
		idx := make([]int64, len(p.base.Rows))
		for i := range idx {
			idx[i] = int64(i)
		}
		cols[k] = colbatch.IntCol(idx)
	}
	return cols, nil
}

func (p *ScanPlan) describe() string { return "scan(" + p.Name + ")" }

// FilterPlan keeps the rows whose predicate evaluates to true.
type FilterPlan struct {
	Input Plan
	Pred  Expr
}

// Where builds a filter over input.
func Where(input Plan, pred Expr) *FilterPlan { return &FilterPlan{Input: input, Pred: pred} }

// Schema implements Plan.
func (p *FilterPlan) Schema() (Schema, error) { return p.Input.Schema() }

func (p *FilterPlan) describe() string {
	return "filter[" + p.Pred.describe() + "](" + p.Input.describe() + ")"
}

// NamedExpr is a projected expression with its output column name.
type NamedExpr struct {
	Name string
	Expr Expr
}

// ProjectPlan computes a new row per input row.
type ProjectPlan struct {
	Input Plan
	Exprs []NamedExpr
}

// Project builds a projection over input.
func Project(input Plan, exprs ...NamedExpr) *ProjectPlan {
	return &ProjectPlan{Input: input, Exprs: exprs}
}

// Schema implements Plan.
func (p *ProjectPlan) Schema() (Schema, error) {
	in, err := p.Input.Schema()
	if err != nil {
		return nil, err
	}
	out := make(Schema, len(p.Exprs))
	for i, ne := range p.Exprs {
		_, kind, err := ne.Expr.bind(in)
		if err != nil {
			return nil, err
		}
		out[i] = Column{Name: ne.Name, Kind: kind}
	}
	return out, nil
}

func (p *ProjectPlan) describe() string { return "project(" + p.Input.describe() + ")" }

// JoinPlan is the equi-join of two inputs on one column each. The output
// schema concatenates the left and right schemas (duplicate names keep both
// entries; qualify upstream with Project if needed).
type JoinPlan struct {
	Left, Right       Plan
	LeftKey, RightKey string
}

// JoinOn builds an inner equi-join.
func JoinOn(left Plan, leftKey string, right Plan, rightKey string) *JoinPlan {
	return &JoinPlan{Left: left, Right: right, LeftKey: leftKey, RightKey: rightKey}
}

// Schema implements Plan.
func (p *JoinPlan) Schema() (Schema, error) {
	ls, err := p.Left.Schema()
	if err != nil {
		return nil, err
	}
	rs, err := p.Right.Schema()
	if err != nil {
		return nil, err
	}
	if _, err := ls.IndexOf(p.LeftKey); err != nil {
		return nil, fmt.Errorf("sql: join left key: %w", err)
	}
	if _, err := rs.IndexOf(p.RightKey); err != nil {
		return nil, fmt.Errorf("sql: join right key: %w", err)
	}
	out := make(Schema, 0, len(ls)+len(rs))
	out = append(out, ls...)
	out = append(out, rs...)
	return out, nil
}

func (p *JoinPlan) describe() string {
	return fmt.Sprintf("join[%s=%s](%s, %s)", p.LeftKey, p.RightKey, p.Left.describe(), p.Right.describe())
}

// AggFunc is an aggregate function.
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota + 1
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", int(f))
	}
}

// AggSpec is one aggregate output: Func over Arg (Arg ignored for Count).
type AggSpec struct {
	Name string
	Func AggFunc
	Arg  Expr
}

// AggregatePlan groups by the named columns and computes the aggregates.
// With no group-by columns it returns a single global row.
type AggregatePlan struct {
	Input   Plan
	GroupBy []string
	Aggs    []AggSpec
}

// GroupBy builds an aggregation over input.
func GroupBy(input Plan, groupCols []string, aggs ...AggSpec) *AggregatePlan {
	return &AggregatePlan{Input: input, GroupBy: groupCols, Aggs: aggs}
}

// Schema implements Plan.
func (p *AggregatePlan) Schema() (Schema, error) {
	in, err := p.Input.Schema()
	if err != nil {
		return nil, err
	}
	out := make(Schema, 0, len(p.GroupBy)+len(p.Aggs))
	for _, g := range p.GroupBy {
		idx, err := in.IndexOf(g)
		if err != nil {
			return nil, err
		}
		out = append(out, in[idx])
	}
	for _, a := range p.Aggs {
		kind := KindFloat
		if a.Func == AggCount {
			kind = KindInt
		} else {
			if a.Arg == nil {
				return nil, fmt.Errorf("sql: aggregate %s(%s) needs an argument", a.Func, a.Name)
			}
			if _, _, err := a.Arg.bind(in); err != nil {
				return nil, err
			}
		}
		out = append(out, Column{Name: a.Name, Kind: kind})
	}
	return out, nil
}

func (p *AggregatePlan) describe() string { return "aggregate(" + p.Input.describe() + ")" }

// LimitPlan keeps the first N rows in deterministic plan order.
type LimitPlan struct {
	Input Plan
	N     int
}

// Limit caps the row count.
func Limit(input Plan, n int) *LimitPlan { return &LimitPlan{Input: input, N: n} }

// Schema implements Plan.
func (p *LimitPlan) Schema() (Schema, error) { return p.Input.Schema() }

func (p *LimitPlan) describe() string { return fmt.Sprintf("limit[%d](%s)", p.N, p.Input.describe()) }

// Describe renders the whole plan tree on one line.
func Describe(p Plan) string { return p.describe() }

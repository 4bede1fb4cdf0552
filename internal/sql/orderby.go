package sql

import (
	"fmt"

	"upa/internal/mapreduce"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	Column string
	Desc   bool
}

// OrderByPlan globally sorts its input (a wide transformation, one shuffle
// round, like Spark's sortBy).
type OrderByPlan struct {
	Input Plan
	Keys  []SortKey
}

// OrderBy builds a sort over input.
func OrderBy(input Plan, keys ...SortKey) *OrderByPlan {
	return &OrderByPlan{Input: input, Keys: keys}
}

// Schema implements Plan.
func (p *OrderByPlan) Schema() (Schema, error) {
	in, err := p.Input.Schema()
	if err != nil {
		return nil, err
	}
	if len(p.Keys) == 0 {
		return nil, fmt.Errorf("sql: ORDER BY with no keys")
	}
	for _, k := range p.Keys {
		if _, err := in.IndexOf(k.Column); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (p *OrderByPlan) describe() string { return "orderBy(" + p.Input.describe() + ")" }

// DistinctPlan removes duplicate rows, keeping first-seen order (one
// shuffle round).
type DistinctPlan struct {
	Input Plan
}

// Distinct builds a duplicate-elimination over input.
func Distinct(input Plan) *DistinctPlan { return &DistinctPlan{Input: input} }

// Schema implements Plan.
func (p *DistinctPlan) Schema() (Schema, error) { return p.Input.Schema() }

func (p *DistinctPlan) describe() string { return "distinct(" + p.Input.describe() + ")" }

// compileOrderBy lowers an OrderByPlan.
func (c *compiler) compileOrderBy(p *OrderByPlan) (*mapreduce.Dataset[Row], error) {
	schema, err := p.Schema() // validates keys
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(p.Keys))
	for i, k := range p.Keys {
		j, err := schema.IndexOf(k.Column)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	keys := p.Keys
	ds, err := c.compile(p.Input)
	if err != nil {
		return nil, err
	}
	less := func(a, b Row) bool {
		for i, j := range idx {
			c, err := Compare(a[j], b[j])
			if err != nil {
				// Mixed-kind columns cannot reach here: the schema fixes
				// each column's kind. Treat defensively as equal.
				continue
			}
			if c == 0 {
				continue
			}
			if keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	return mapreduce.SortBy(ds, ds.NumPartitions(), less)
}

// compileDistinct lowers a DistinctPlan via a keyed first-wins reduction on
// the rows' rendered form (rows are slices and not directly comparable).
func (c *compiler) compileDistinct(p *DistinctPlan) (*mapreduce.Dataset[Row], error) {
	ds, err := c.compile(p.Input)
	if err != nil {
		return nil, err
	}
	keyed := mapreduce.KeyBy(ds, rowKey)
	first := mapreduce.ReduceByKey(keyed, func(a, _ Row) Row { return a })
	return mapreduce.Values(first), nil
}

// rowKey renders a row into a collision-safe string key.
func rowKey(r Row) string { return string(appendRowKey(nil, r)) }

// appendRowKey appends the key rendering of r's cells to buf — the one
// rendering behind group keys, Distinct and the tests' row comparisons.
func appendRowKey(buf []byte, r Row) []byte {
	for _, v := range r {
		buf = appendKey(buf, v)
	}
	return buf
}

// appendKey appends one cell of a key: the value as String renders it, then
// a unit separator. Strings are quoted, so no cell can contain a bare
// separator and distinct rows cannot collide.
func appendKey(buf []byte, v Value) []byte {
	return append(v.appendText(buf), 0x1f)
}

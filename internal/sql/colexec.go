package sql

import (
	"fmt"

	"upa/internal/colbatch"
	"upa/internal/mapreduce"
)

// colexec.go is the columnar execution path: the loss-free Row↔Batch
// converters, the batch source that cuts 1 024-row windows out of a
// relation's resident image (ScanPlan.columns), and fused MapPartitions
// pipelines that run whole Filter/Project chains (optionally feeding the
// aggregate fold, or the DP bridge's key counts) batch-at-a-time with
// the kernels vectorize.go compiles. Shuffles, joins, sorts and limits stay
// row-based; the converters guarantee the columnar region is observationally
// identical to the row path (same rows, same bytes, same order within each
// partition).

// colBatchSize is the number of rows per batch: large enough to amortize
// per-batch dispatch, small enough that a batch's columns stay cache
// resident.
const colBatchSize = 1024

// rowsToBatch decomposes rows into typed columns. Every cell must match the
// declared schema kind — the columnar seam is strict where the row path
// improvises per operator, so a mismatch aborts with a clear error rather
// than silently diverging.
func rowsToBatch(schema Schema, rows []Row) (*colbatch.Batch, error) {
	for _, r := range rows {
		if len(r) != len(schema) {
			return nil, widthErr(schema, r)
		}
	}
	cols := make([]colbatch.Col, len(schema))
	for ci, col := range schema {
		switch col.Kind {
		case KindInt:
			v := make([]int64, len(rows))
			for ri, r := range rows {
				cell, ok := r[ci].AsInt()
				if !ok {
					return nil, convertErr(col, r[ci])
				}
				v[ri] = cell
			}
			cols[ci] = colbatch.IntCol(v)
		case KindFloat:
			v := make([]float64, len(rows))
			for ri, r := range rows {
				if r[ci].Kind() != KindFloat {
					return nil, convertErr(col, r[ci])
				}
				cell, _ := r[ci].AsFloat()
				v[ri] = cell
			}
			cols[ci] = colbatch.FloatCol(v)
		case KindString:
			v := make([]string, len(rows))
			for ri, r := range rows {
				cell, ok := r[ci].AsString()
				if !ok {
					return nil, convertErr(col, r[ci])
				}
				v[ri] = cell
			}
			cols[ci] = colbatch.StrCol(v)
		case KindBool:
			v := make([]bool, len(rows))
			for ri, r := range rows {
				cell, ok := r[ci].AsBool()
				if !ok {
					return nil, convertErr(col, r[ci])
				}
				v[ri] = cell
			}
			cols[ci] = colbatch.BoolCol(v)
		default:
			return nil, fmt.Errorf("sql: column %q has unbatchable kind", col.Name)
		}
	}
	return &colbatch.Batch{Cols: cols, N: len(rows)}, nil
}

func widthErr(schema Schema, r Row) error {
	return fmt.Errorf("sql: row width %d does not match schema %v", len(r), schema.Names())
}

func convertErr(col Column, v Value) error {
	return fmt.Errorf("sql: column %q declared %s but holds %s", col.Name, col.Kind, v.Kind())
}

// cellValue rebuilds the sql Value of one lane — the inverse of rowsToBatch
// for a single cell.
func cellValue(c colbatch.Col, i int) Value {
	switch c.Kind {
	case colbatch.Int64:
		return Int(c.I64[i])
	case colbatch.Float64:
		return Float(c.F64[i])
	case colbatch.String:
		return Str(c.Str[i])
	default:
		return Bool(c.Bool[i])
	}
}

// appendBatchRows gathers the batch's live lanes back into rows, appending
// to dst. The batch's rows share one backing array of cells.
func appendBatchRows(dst []Row, b *colbatch.Batch) []Row {
	width := len(b.Cols)
	cells := make([]Value, b.Live()*width)
	b.ForSel(func(i int) {
		row := Row(cells[:width:width])
		cells = cells[width:]
		for ci, c := range b.Cols {
			row[ci] = cellValue(c, i)
		}
		dst = append(dst, row)
	})
	return dst
}

// batchOp is one fused pipeline step: it mutates the batch in place (refine
// the selection, replace the columns).
type batchOp func(*colbatch.Batch)

// buildColumnarOps lowers a Filter/Project chain over a scan into a fused
// kernel program. The caller must have established eligibility via
// vectorizableChain; an ineligible node here is a programming error.
func buildColumnarOps(top Plan) (*ScanPlan, []batchOp, error) {
	var rev []Plan
	p := top
	for {
		if s, ok := p.(*ScanPlan); ok {
			ops := make([]batchOp, 0, len(rev))
			schema := Schema(s.Cols)
			for i := len(rev) - 1; i >= 0; i-- {
				switch n := rev[i].(type) {
				case *FilterPlan:
					fn, kind, ok := vectorizeExpr(n.Pred, schema)
					if !ok || kind != KindBool {
						return nil, nil, fmt.Errorf("sql: internal: filter not vectorizable")
					}
					ops = append(ops, func(b *colbatch.Batch) {
						b.Refine(fn(b).Bool)
					})
				case *ProjectPlan:
					fns := make([]vecFn, len(n.Exprs))
					next := make(Schema, len(n.Exprs))
					for j, ne := range n.Exprs {
						fn, kind, ok := vectorizeExpr(ne.Expr, schema)
						if !ok {
							return nil, nil, fmt.Errorf("sql: internal: projection not vectorizable")
						}
						fns[j] = fn
						next[j] = Column{Name: ne.Name, Kind: kind}
					}
					ops = append(ops, func(b *colbatch.Batch) {
						cols := make([]colbatch.Col, len(fns))
						for j, fn := range fns {
							cols[j] = fn(b)
						}
						b.Cols = cols
					})
					schema = next
				}
			}
			return s, ops, nil
		}
		switch n := p.(type) {
		case *FilterPlan:
			rev = append(rev, n)
			p = n.Input
		case *ProjectPlan:
			rev = append(rev, n)
			p = n.Input
		default:
			return nil, nil, fmt.Errorf("sql: internal: %T in columnar chain", p)
		}
	}
}

// batchSource is the engine-side handle of a columnar scan. The rows live in
// the relation's resident image, so nothing is copied into the engine or
// offered to its spill store: slots is a dataset of empty partitions, one per
// scanParts slot, and the task of slot p reads rows partBounds(n, parts, p)
// of the image.
type batchSource struct {
	eng      *mapreduce.Engine
	cols     []colbatch.Col
	n, parts int
	slots    *mapreduce.Dataset[struct{}]
}

func (c *compiler) openScan(scan *ScanPlan) (*batchSource, error) {
	cols, err := scan.columns()
	if err != nil {
		return nil, err
	}
	parts := scanParts(c.eng, scan)
	slots, err := mapreduce.FromPartitions(c.eng, make([][]struct{}, parts))
	if err != nil {
		return nil, err
	}
	return &batchSource{eng: c.eng, cols: cols, n: scan.numRows(), parts: parts, slots: slots}, nil
}

// partBounds is the [lo, hi) row range of partition p when n rows split into
// parts contiguous partitions — the split mapreduce.FromSlice makes, so the
// columnar and row paths see identically partitioned scans.
func partBounds(n, parts, p int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = p*base + min(p, rem)
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

// run feeds the rows of partition p through ops in colBatchSize windows —
// each batch a zero-copy window of the image — hands every batch to emit,
// and accounts the windows to the engine.
func (s *batchSource) run(p int, ops []batchOp, emit func(*colbatch.Batch)) {
	lo, hi := partBounds(s.n, s.parts, p)
	var batches int64
	for start := lo; start < hi; start += colBatchSize {
		end := min(start+colBatchSize, hi)
		b := &colbatch.Batch{Cols: make([]colbatch.Col, len(s.cols)), N: end - start}
		for i, c := range s.cols {
			b.Cols[i] = c.Slice(start, end)
		}
		for _, op := range ops {
			op(b)
		}
		emit(b)
		batches++
	}
	s.eng.AccountBatches(batches, int64(hi-lo))
}

// compileColumnarChain runs a vectorizable Filter/Project chain as one
// fused MapPartitions: image windows → kernels → rows, with no intermediate
// row materialization between operators.
func (c *compiler) compileColumnarChain(top Plan) (*mapreduce.Dataset[Row], error) {
	scan, ops, err := buildColumnarOps(top)
	if err != nil {
		return nil, err
	}
	src, err := c.openScan(scan)
	if err != nil {
		return nil, err
	}
	return mapreduce.MapPartitions(src.slots, func(p int, _ []struct{}) ([]Row, error) {
		var out []Row
		src.run(p, ops, func(b *colbatch.Batch) { out = appendBatchRows(out, b) })
		return out, nil
	}), nil
}

// foldBatches feeds the aggregate fold from the image of a vectorizable
// chain: arguments come from kernels, one vector per batch, and each live
// lane is one tuple. The partition count is the row scan's, so the shuffle
// downstream merges partials in the same order either way.
func (c *compiler) foldBatches(p *AggregatePlan, in Schema, groupIdx []int) (*mapreduce.Dataset[mapreduce.Pair[string, groupAcc]], error) {
	scan, ops, err := buildColumnarOps(p.Input)
	if err != nil {
		return nil, err
	}
	argFns := make([]vecFn, len(p.Aggs))
	for i, a := range p.Aggs {
		if a.Func == AggCount {
			continue
		}
		fn, kind, ok := vectorizeExpr(a.Arg, in)
		if !ok || !numeric(kind) {
			return nil, fmt.Errorf("sql: internal: aggregate argument not vectorizable")
		}
		argFns[i] = fn
	}
	src, err := c.openScan(scan)
	if err != nil {
		return nil, err
	}
	return mapreduce.MapPartitions(src.slots, func(part int, _ []struct{}) ([]mapreduce.Pair[string, groupAcc], error) {
		f := newAggFold(p)
		argCols := make([][]float64, len(argFns))
		src.run(part, ops, func(b *colbatch.Batch) {
			for i, fn := range argFns {
				if fn == nil {
					continue
				}
				col := fn(b)
				if col.Kind == colbatch.Float64 {
					argCols[i] = col.F64
				} else {
					argCols[i] = make([]float64, b.N)
					colbatch.Widen(argCols[i], col.I64)
				}
			}
			b.ForSel(func(lane int) {
				for j, gi := range groupIdx {
					f.keys[j] = cellValue(b.Cols[gi], lane)
				}
				for i, ac := range argCols {
					if ac != nil {
						f.args[i] = ac[lane]
					}
				}
				f.add()
			})
		})
		return f.partials(), nil
	}), nil
}

// Package colbatch is the columnar execution substrate of the SQL layer's
// physical plans: a Batch holds a fixed window of rows decomposed into typed
// per-column slices ([]int64, []float64, []string, []bool) plus a selection
// vector, and kernels.go provides the vectorized filter/project primitives
// that operate a column at a time instead of a boxed value at a time
// (MonetDB/X100-style vectorization). The package is deliberately free of
// the sql package — the sql layer owns the loss-free Row↔Batch converters —
// and free of time and randomness, so it sits inside the seededdeterminism
// analyzer's critical prefix set.
//
// Kernels compute over the full column length and ignore the selection
// vector; selection is applied only at materialization seams (gathering rows
// back out, folding an aggregate). Computing dead lanes is safe because
// every vectorizable expression is infallible — the sql vectorizer rejects
// division and mixed-kind comparisons, the only fallible scalar operators —
// and it keeps the inner loops branch-free.
package colbatch

// Kind is a column's element type. The four kinds mirror the SQL value
// kinds; the zero Kind is invalid.
type Kind int

// Column kinds.
const (
	Int64 Kind = iota + 1
	Float64
	String
	Bool
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return "invalid"
	}
}

// Col is one typed column: exactly one payload slice is non-nil, selected by
// Kind, and its length is the batch's row count.
type Col struct {
	Kind Kind
	I64  []int64
	F64  []float64
	Str  []string
	Bool []bool
}

// Len returns the column's element count.
func (c Col) Len() int {
	switch c.Kind {
	case Int64:
		return len(c.I64)
	case Float64:
		return len(c.F64)
	case String:
		return len(c.Str)
	case Bool:
		return len(c.Bool)
	default:
		return 0
	}
}

// Slice returns the window [lo, hi) of the column, sharing its payload: how
// a batch is cut out of a relation's resident full-length vectors without a
// copy. Kernels never write to their inputs, so the window is as read-only
// as the column it came from.
func (c Col) Slice(lo, hi int) Col {
	switch c.Kind {
	case Int64:
		return IntCol(c.I64[lo:hi:hi])
	case Float64:
		return FloatCol(c.F64[lo:hi:hi])
	case String:
		return StrCol(c.Str[lo:hi:hi])
	case Bool:
		return BoolCol(c.Bool[lo:hi:hi])
	default:
		return c
	}
}

// IntCol wraps a payload slice as an int64 column.
func IntCol(v []int64) Col { return Col{Kind: Int64, I64: v} }

// FloatCol wraps a payload slice as a float64 column.
func FloatCol(v []float64) Col { return Col{Kind: Float64, F64: v} }

// StrCol wraps a payload slice as a string column.
func StrCol(v []string) Col { return Col{Kind: String, Str: v} }

// BoolCol wraps a payload slice as a bool column.
func BoolCol(v []bool) Col { return Col{Kind: Bool, Bool: v} }

// ConstCol materializes a length-n column holding the same value in every
// lane. Used for literal expressions that reach a projection directly; the
// vectorizer folds literals inside binary operators into Const kernels
// instead.
func ConstCol(kind Kind, n int, i int64, f float64, s string, b bool) Col {
	switch kind {
	case Int64:
		v := make([]int64, n)
		for j := range v {
			v[j] = i
		}
		return IntCol(v)
	case Float64:
		v := make([]float64, n)
		for j := range v {
			v[j] = f
		}
		return FloatCol(v)
	case String:
		v := make([]string, n)
		for j := range v {
			v[j] = s
		}
		return StrCol(v)
	default:
		v := make([]bool, n)
		for j := range v {
			v[j] = b
		}
		return BoolCol(v)
	}
}

// Batch is one window of rows in columnar form. N is the physical row count
// (every column's length); Sel, when non-nil, lists the live row indices in
// ascending order — rows a filter has kept. A nil Sel means all N rows are
// live.
type Batch struct {
	Cols []Col
	N    int
	Sel  []int
}

// Live returns the number of selected rows.
func (b *Batch) Live() int {
	if b.Sel == nil {
		return b.N
	}
	return len(b.Sel)
}

// Refine intersects the selection with a full-length boolean mask: a row
// survives when it was live and mask[row] is true. The selection stays in
// ascending order.
func (b *Batch) Refine(mask []bool) {
	if b.Sel == nil {
		sel := make([]int, 0, b.N)
		for i := 0; i < b.N; i++ {
			if mask[i] {
				sel = append(sel, i)
			}
		}
		b.Sel = sel
		return
	}
	kept := b.Sel[:0]
	for _, i := range b.Sel {
		if mask[i] {
			kept = append(kept, i)
		}
	}
	b.Sel = kept
}

// ForSel calls fn for each live row index in ascending order.
func (b *Batch) ForSel(fn func(i int)) {
	if b.Sel == nil {
		for i := 0; i < b.N; i++ {
			fn(i)
		}
		return
	}
	for _, i := range b.Sel {
		fn(i)
	}
}

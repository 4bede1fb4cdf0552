package colbatch

// Vectorized kernels. Every kernel writes all len(dst) lanes — selection is
// the caller's concern — and none can fail, which is what lets the sql
// vectorizer evaluate filters and projections over dead lanes without
// changing observable behaviour.
//
// Comparison semantics mirror the sql layer's exactly:
//
//   - Lt/Gt compare directly; Le is !(a > b) and Ge is !(a < b). On float64
//     this reproduces sql.Compare's three-way result (NaN compares "equal"
//     to everything because both < and > are false), and on int64/string
//     the negated form is identical to <=/>=.
//   - Eq/Ne are direct Go equality — the row path's same-kind shortcut,
//     under which NaN ≠ NaN.
//   - EqWiden/NeWiden are the Compare-routed equalities the row path uses
//     for mixed int/float operands: equal iff neither side is less, so NaN
//     "equals" everything, matching Compare's widened three-way result.

// Num is an arithmetic element type.
type Num interface{ ~int64 | ~float64 }

// Ordered is an element type with a direct < ordering.
type Ordered interface{ ~int64 | ~float64 | ~string }

// Eltype is any column element type.
type Eltype interface {
	~int64 | ~float64 | ~string | ~bool
}

// Widen converts an int64 column to float64 — the numeric widening
// sql.Compare and mixed arithmetic apply.
func Widen(dst []float64, src []int64) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// --- arithmetic -----------------------------------------------------------

// Add computes dst[i] = a[i] + b[i].
func Add[T Num](dst, a, b []T) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst[i] = a[i] - b[i].
func Sub[T Num](dst, a, b []T) {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Mul computes dst[i] = a[i] * b[i].
func Mul[T Num](dst, a, b []T) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// AddConst computes dst[i] = a[i] + c.
func AddConst[T Num](dst, a []T, c T) {
	for i := range dst {
		dst[i] = a[i] + c
	}
}

// SubConstR computes dst[i] = a[i] - c.
func SubConstR[T Num](dst, a []T, c T) {
	for i := range dst {
		dst[i] = a[i] - c
	}
}

// SubConstL computes dst[i] = c - a[i].
func SubConstL[T Num](dst, a []T, c T) {
	for i := range dst {
		dst[i] = c - a[i]
	}
}

// MulConst computes dst[i] = a[i] * c.
func MulConst[T Num](dst, a []T, c T) {
	for i := range dst {
		dst[i] = a[i] * c
	}
}

// --- comparisons ----------------------------------------------------------

// Eq computes dst[i] = a[i] == b[i] (direct same-kind equality).
func Eq[T Eltype](dst []bool, a, b []T) {
	for i := range dst {
		dst[i] = a[i] == b[i]
	}
}

// Ne computes dst[i] = a[i] != b[i].
func Ne[T Eltype](dst []bool, a, b []T) {
	for i := range dst {
		dst[i] = a[i] != b[i]
	}
}

// Lt computes dst[i] = a[i] < b[i].
func Lt[T Ordered](dst []bool, a, b []T) {
	for i := range dst {
		dst[i] = a[i] < b[i]
	}
}

// Le computes dst[i] = !(a[i] > b[i]) — Compare's c <= 0.
func Le[T Ordered](dst []bool, a, b []T) {
	for i := range dst {
		dst[i] = !(a[i] > b[i])
	}
}

// Gt computes dst[i] = a[i] > b[i].
func Gt[T Ordered](dst []bool, a, b []T) {
	for i := range dst {
		dst[i] = a[i] > b[i]
	}
}

// Ge computes dst[i] = !(a[i] < b[i]) — Compare's c >= 0.
func Ge[T Ordered](dst []bool, a, b []T) {
	for i := range dst {
		dst[i] = !(a[i] < b[i])
	}
}

// EqConst computes dst[i] = a[i] == c.
func EqConst[T Eltype](dst []bool, a []T, c T) {
	for i := range dst {
		dst[i] = a[i] == c
	}
}

// NeConst computes dst[i] = a[i] != c.
func NeConst[T Eltype](dst []bool, a []T, c T) {
	for i := range dst {
		dst[i] = a[i] != c
	}
}

// LtConst computes dst[i] = a[i] < c.
func LtConst[T Ordered](dst []bool, a []T, c T) {
	for i := range dst {
		dst[i] = a[i] < c
	}
}

// LeConst computes dst[i] = !(a[i] > c).
func LeConst[T Ordered](dst []bool, a []T, c T) {
	for i := range dst {
		dst[i] = !(a[i] > c)
	}
}

// GtConst computes dst[i] = a[i] > c.
func GtConst[T Ordered](dst []bool, a []T, c T) {
	for i := range dst {
		dst[i] = a[i] > c
	}
}

// GeConst computes dst[i] = !(a[i] < c).
func GeConst[T Ordered](dst []bool, a []T, c T) {
	for i := range dst {
		dst[i] = !(a[i] < c)
	}
}

// EqWiden computes the Compare-routed mixed-numeric equality:
// dst[i] = !(a[i] < b[i]) && !(a[i] > b[i]).
func EqWiden(dst []bool, a, b []float64) {
	for i := range dst {
		dst[i] = !(a[i] < b[i]) && !(a[i] > b[i])
	}
}

// NeWiden computes dst[i] = a[i] < b[i] || a[i] > b[i].
func NeWiden(dst []bool, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] < b[i] || a[i] > b[i]
	}
}

// EqWidenConst is EqWiden against a scalar right operand.
func EqWidenConst(dst []bool, a []float64, c float64) {
	for i := range dst {
		dst[i] = !(a[i] < c) && !(a[i] > c)
	}
}

// NeWidenConst is NeWiden against a scalar right operand.
func NeWidenConst(dst []bool, a []float64, c float64) {
	for i := range dst {
		dst[i] = a[i] < c || a[i] > c
	}
}

// --- bool ordering --------------------------------------------------------

// Bools order false < true, mirroring sql.Compare.

// LtBool computes dst[i] = !a[i] && b[i].
func LtBool(dst []bool, a, b []bool) {
	for i := range dst {
		dst[i] = !a[i] && b[i]
	}
}

// LeBool computes dst[i] = !a[i] || b[i].
func LeBool(dst []bool, a, b []bool) {
	for i := range dst {
		dst[i] = !a[i] || b[i]
	}
}

// GtBool computes dst[i] = a[i] && !b[i].
func GtBool(dst []bool, a, b []bool) {
	for i := range dst {
		dst[i] = a[i] && !b[i]
	}
}

// GeBool computes dst[i] = a[i] || !b[i].
func GeBool(dst []bool, a, b []bool) {
	for i := range dst {
		dst[i] = a[i] || !b[i]
	}
}

// --- logic ----------------------------------------------------------------

// And computes dst[i] = a[i] && b[i]. The row path short-circuits AND, but
// vectorizable operands are infallible, so full evaluation is equivalent.
func And(dst, a, b []bool) {
	for i := range dst {
		dst[i] = a[i] && b[i]
	}
}

// Or computes dst[i] = a[i] || b[i].
func Or(dst, a, b []bool) {
	for i := range dst {
		dst[i] = a[i] || b[i]
	}
}

// Not computes dst[i] = !a[i].
func Not(dst, a []bool) {
	for i := range dst {
		dst[i] = !a[i]
	}
}

package colbatch

import (
	"math"
	"testing"
)

func TestRefineFromNilSelection(t *testing.T) {
	b := &Batch{N: 5}
	b.Refine([]bool{true, false, true, false, true})
	want := []int{0, 2, 4}
	if len(b.Sel) != len(want) {
		t.Fatalf("Sel = %v, want %v", b.Sel, want)
	}
	for i := range want {
		if b.Sel[i] != want[i] {
			t.Fatalf("Sel = %v, want %v", b.Sel, want)
		}
	}
	if b.Live() != 3 {
		t.Fatalf("Live = %d, want 3", b.Live())
	}
}

func TestRefineIntersects(t *testing.T) {
	b := &Batch{N: 5, Sel: []int{0, 2, 4}}
	b.Refine([]bool{true, true, false, true, true})
	want := []int{0, 4}
	if len(b.Sel) != len(want) || b.Sel[0] != 0 || b.Sel[1] != 4 {
		t.Fatalf("Sel = %v, want %v", b.Sel, want)
	}
}

func TestForSelOrder(t *testing.T) {
	b := &Batch{N: 3}
	var got []int
	b.ForSel(func(i int) { got = append(got, i) })
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("ForSel over nil Sel visited %v", got)
	}
	b.Sel = []int{1, 2}
	got = nil
	b.ForSel(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ForSel over Sel visited %v", got)
	}
}

func TestArithmeticKernels(t *testing.T) {
	a := []int64{1, 2, 3}
	b := []int64{10, 20, 30}
	dst := make([]int64, 3)
	Add(dst, a, b)
	if dst[1] != 22 {
		t.Fatalf("Add = %v", dst)
	}
	Sub(dst, b, a)
	if dst[2] != 27 {
		t.Fatalf("Sub = %v", dst)
	}
	Mul(dst, a, b)
	if dst[0] != 10 {
		t.Fatalf("Mul = %v", dst)
	}
	AddConst(dst, a, 5)
	if dst[0] != 6 {
		t.Fatalf("AddConst = %v", dst)
	}
	SubConstR(dst, a, 1)
	if dst[0] != 0 {
		t.Fatalf("SubConstR = %v", dst)
	}
	SubConstL(dst, a, 10)
	if dst[2] != 7 {
		t.Fatalf("SubConstL = %v", dst)
	}
	MulConst(dst, a, 3)
	if dst[1] != 6 {
		t.Fatalf("MulConst = %v", dst)
	}
}

func TestWiden(t *testing.T) {
	dst := make([]float64, 2)
	Widen(dst, []int64{3, -7})
	if dst[0] != 3 || dst[1] != -7 {
		t.Fatalf("Widen = %v", dst)
	}
}

// TestNaNComparisonSemantics pins the two equality regimes: direct equality
// (the row path's same-kind shortcut) has NaN ≠ NaN, while the widened
// Compare-routed forms treat NaN as equal to everything because neither <
// nor > holds.
func TestNaNComparisonSemantics(t *testing.T) {
	nan := math.NaN()
	a := []float64{nan, 1}
	b := []float64{nan, nan}
	dst := make([]bool, 2)

	Eq(dst, a, b)
	if dst[0] || dst[1] {
		t.Fatalf("direct Eq with NaN = %v, want all false", dst)
	}
	EqWiden(dst, a, b)
	if !dst[0] || !dst[1] {
		t.Fatalf("widened Eq with NaN = %v, want all true", dst)
	}
	NeWiden(dst, a, b)
	if dst[0] || dst[1] {
		t.Fatalf("widened Ne with NaN = %v, want all false", dst)
	}
	// Le/Ge are the negated strict forms, so NaN "≤" and "≥" everything.
	Le(dst, a, b)
	if !dst[0] || !dst[1] {
		t.Fatalf("Le with NaN = %v, want all true", dst)
	}
	Ge(dst, a, b)
	if !dst[0] || !dst[1] {
		t.Fatalf("Ge with NaN = %v, want all true", dst)
	}
	Lt(dst, a, b)
	if dst[0] || dst[1] {
		t.Fatalf("Lt with NaN = %v, want all false", dst)
	}
}

func TestOrderingKernels(t *testing.T) {
	a := []string{"a", "b", "c"}
	b := []string{"b", "b", "b"}
	dst := make([]bool, 3)
	Lt(dst, a, b)
	if !dst[0] || dst[1] || dst[2] {
		t.Fatalf("Lt strings = %v", dst)
	}
	Le(dst, a, b)
	if !dst[0] || !dst[1] || dst[2] {
		t.Fatalf("Le strings = %v", dst)
	}
	GtConst(dst, a, "a")
	if dst[0] || !dst[1] || !dst[2] {
		t.Fatalf("GtConst strings = %v", dst)
	}
	GeConst(dst, a, "b")
	if dst[0] || !dst[1] || !dst[2] {
		t.Fatalf("GeConst strings = %v", dst)
	}
	EqConst(dst, a, "b")
	if dst[0] || !dst[1] || dst[2] {
		t.Fatalf("EqConst strings = %v", dst)
	}
	NeConst(dst, a, "b")
	if !dst[0] || dst[1] || !dst[2] {
		t.Fatalf("NeConst strings = %v", dst)
	}
	LtConst(dst, a, "b")
	if !dst[0] || dst[1] || dst[2] {
		t.Fatalf("LtConst strings = %v", dst)
	}
	LeConst(dst, a, "b")
	if !dst[0] || !dst[1] || dst[2] {
		t.Fatalf("LeConst strings = %v", dst)
	}
}

func TestBoolOrderingKernels(t *testing.T) {
	a := []bool{false, true, false, true}
	b := []bool{false, false, true, true}
	dst := make([]bool, 4)
	LtBool(dst, a, b)
	if dst[0] || dst[1] || !dst[2] || dst[3] {
		t.Fatalf("LtBool = %v", dst)
	}
	LeBool(dst, a, b)
	if !dst[0] || dst[1] || !dst[2] || !dst[3] {
		t.Fatalf("LeBool = %v", dst)
	}
	GtBool(dst, a, b)
	if dst[0] || !dst[1] || dst[2] || dst[3] {
		t.Fatalf("GtBool = %v", dst)
	}
	GeBool(dst, a, b)
	if !dst[0] || !dst[1] || dst[2] || !dst[3] {
		t.Fatalf("GeBool = %v", dst)
	}
}

func TestLogicKernels(t *testing.T) {
	a := []bool{true, true, false, false}
	b := []bool{true, false, true, false}
	dst := make([]bool, 4)
	And(dst, a, b)
	if !dst[0] || dst[1] || dst[2] || dst[3] {
		t.Fatalf("And = %v", dst)
	}
	Or(dst, a, b)
	if !dst[0] || !dst[1] || !dst[2] || dst[3] {
		t.Fatalf("Or = %v", dst)
	}
	Not(dst, a)
	if dst[0] || dst[1] || !dst[2] || !dst[3] {
		t.Fatalf("Not = %v", dst)
	}
}

func TestConstCol(t *testing.T) {
	c := ConstCol(Int64, 3, 7, 0, "", false)
	if c.Len() != 3 || c.I64[2] != 7 {
		t.Fatalf("ConstCol int = %+v", c)
	}
	c = ConstCol(String, 2, 0, 0, "x", false)
	if c.Len() != 2 || c.Str[1] != "x" {
		t.Fatalf("ConstCol string = %+v", c)
	}
	c = ConstCol(Float64, 1, 0, 2.5, "", false)
	if c.Len() != 1 || c.F64[0] != 2.5 {
		t.Fatalf("ConstCol float = %+v", c)
	}
	c = ConstCol(Bool, 2, 0, 0, "", true)
	if c.Len() != 2 || !c.Bool[1] {
		t.Fatalf("ConstCol bool = %+v", c)
	}
}

// TestColSliceSharesPayload pins Slice as a window, not a copy: same kind,
// the requested length, the parent's storage, and no capacity to append
// into the rows after the window.
func TestColSliceSharesPayload(t *testing.T) {
	cols := []Col{
		IntCol([]int64{0, 1, 2, 3, 4}),
		FloatCol([]float64{0, 1, 2, 3, 4}),
		StrCol([]string{"0", "1", "2", "3", "4"}),
		BoolCol([]bool{false, true, false, true, false}),
	}
	for _, c := range cols {
		w := c.Slice(1, 4)
		if w.Kind != c.Kind || w.Len() != 3 {
			t.Fatalf("%s window has kind %s, length %d", c.Kind, w.Kind, w.Len())
		}
	}
	w := cols[0].Slice(1, 4)
	if &w.I64[0] != &cols[0].I64[1] || cap(w.I64) != 3 {
		t.Fatalf("int window: shares storage %v, cap %d", &w.I64[0] == &cols[0].I64[1], cap(w.I64))
	}
	if s := cols[2].Slice(2, 2); s.Len() != 0 || s.Kind != String {
		t.Fatalf("empty window = %+v", s)
	}
}

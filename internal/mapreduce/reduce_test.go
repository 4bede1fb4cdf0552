package mapreduce

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// TestPrefixSuffixComplement checks the union-preserving reduce's shared
// helpers against a from-scratch fold: for every i, Complement over
// PrefixSuffix's partials equals ReduceSlice over xs without xs[i], bit for
// bit, and the reduce-op charge is exactly 2(n−1) for the partials plus one
// per interior i. Float addition is only associative on exact sums, so the
// float inputs are integers whose every partial sum is exact; string
// concatenation is associative but not commutative, so a fold that swaps
// its operands fails there.
func TestPrefixSuffixComplement(t *testing.T) {
	sizes := []int{0, 1, 2, 3}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 50; k++ {
		sizes = append(sizes, rng.Intn(201))
	}
	for _, n := range sizes {
		floats := make([]float64, n)
		strs := make([]string, n)
		for i := range floats {
			v := rng.Intn(1<<21) - 1<<20
			floats[i] = float64(v)
			strs[i] = strconv.Itoa(v) + ";"
		}
		checkComplement(t, floats, func(a, b float64) float64 { return a + b },
			func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
		checkComplement(t, strs, func(a, b string) string { return a + b },
			func(a, b string) bool { return a == b })
	}
}

func checkComplement[T any](t *testing.T, xs []T, f Reducer[T], same func(a, b T) bool) {
	t.Helper()
	n := len(xs)
	eng := NewEngine()
	pre, suf := PrefixSuffix(eng, xs, f)
	wantOps := int64(0)
	if n > 0 {
		wantOps = int64(2 * (n - 1))
	}
	if got := eng.Metrics().ReduceOps; got != wantOps {
		t.Fatalf("n=%d: PrefixSuffix charged %d reduce ops, want %d", n, got, wantOps)
	}
	for i := 0; i < n; i++ {
		if i > 0 && i < n-1 {
			wantOps++
		}
		got, ok := Complement(eng, pre, suf, i, i+1, f)
		want, wantOK := ReduceSlice(slices.Delete(slices.Clone(xs), i, i+1), f)
		if ok != wantOK || (ok && !same(got, want)) {
			t.Fatalf("n=%d: complement of %d = %v, %v; want %v, %v", n, i, got, ok, want, wantOK)
		}
		if ops := eng.Metrics().ReduceOps; ops != wantOps {
			t.Fatalf("n=%d: after complement of %d, %d reduce ops, want %d", n, i, ops, wantOps)
		}
	}
}

package mapreduce

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// Algebraic laws of the engine's operators: these hold for pure functions
// and are what allow Spark-style optimizers (and UPA's reuse argument) to
// reorder work freely.

func collectInts(t *testing.T, d *Dataset[int]) []int {
	t.Helper()
	out, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Map fusion: Map(g) ∘ Map(f) ≡ Map(g ∘ f).
func TestMapFusionLaw(t *testing.T) {
	eng := NewEngine()
	f := func(x int) int { return 3*x + 1 }
	g := func(x int) int { return x * x }
	prop := func(raw []int16, partsRaw uint8) bool {
		data := make([]int, len(raw))
		for i, v := range raw {
			data[i] = int(v)
		}
		parts := int(partsRaw%6) + 1
		d1, err := FromSlice(eng, data, parts)
		if err != nil {
			return false
		}
		d2, err := FromSlice(eng, data, parts)
		if err != nil {
			return false
		}
		chained, err := Map(Map(d1, f), g).Collect()
		if err != nil {
			return false
		}
		fused, err := Map(d2, func(x int) int { return g(f(x)) }).Collect()
		if err != nil {
			return false
		}
		return equalInts(chained, fused)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Filter–map commutation: for a predicate on the mapped value,
// Filter(p) ∘ Map(f) ≡ Map(f) ∘ Filter(p ∘ f).
func TestFilterMapCommutationLaw(t *testing.T) {
	eng := NewEngine()
	f := func(x int) int { return x - 7 }
	p := func(x int) bool { return x%2 == 0 }
	prop := func(raw []int16) bool {
		data := make([]int, len(raw))
		for i, v := range raw {
			data[i] = int(v)
		}
		d1, err := FromSlice(eng, data, 3)
		if err != nil {
			return false
		}
		d2, err := FromSlice(eng, data, 3)
		if err != nil {
			return false
		}
		mapThenFilter, err := Filter(Map(d1, f), p).Collect()
		if err != nil {
			return false
		}
		filterThenMap, err := Map(Filter(d2, func(x int) bool { return p(f(x)) }), f).Collect()
		if err != nil {
			return false
		}
		return equalInts(mapThenFilter, filterThenMap)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Filter conjunction: Filter(p) ∘ Filter(q) ≡ Filter(p ∧ q).
func TestFilterConjunctionLaw(t *testing.T) {
	eng := NewEngine()
	p := func(x int) bool { return x > 0 }
	q := func(x int) bool { return x%3 != 0 }
	prop := func(raw []int16) bool {
		data := make([]int, len(raw))
		for i, v := range raw {
			data[i] = int(v)
		}
		d1, err := FromSlice(eng, data, 2)
		if err != nil {
			return false
		}
		d2, err := FromSlice(eng, data, 2)
		if err != nil {
			return false
		}
		chained, err := Filter(Filter(d1, q), p).Collect()
		if err != nil {
			return false
		}
		combined, err := Filter(d2, func(x int) bool { return p(x) && q(x) }).Collect()
		if err != nil {
			return false
		}
		return equalInts(chained, combined)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Partitioning invariance: the partition count never changes an action's
// result (the property that makes the engine's parallelism safe).
func TestPartitioningInvarianceLaw(t *testing.T) {
	eng := NewEngine()
	prop := func(raw []int16, p1Raw, p2Raw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]int, len(raw))
		for i, v := range raw {
			data[i] = int(v)
		}
		p1 := int(p1Raw%8) + 1
		p2 := int(p2Raw%8) + 1
		d1, err := FromSlice(eng, data, p1)
		if err != nil {
			return false
		}
		d2, err := FromSlice(eng, data, p2)
		if err != nil {
			return false
		}
		sum := func(a, b int) int { return a + b }
		r1, err := Reduce(Map(d1, func(x int) int { return x * x }), sum)
		if err != nil {
			return false
		}
		r2, err := Reduce(Map(d2, func(x int) int { return x * x }), sum)
		if err != nil {
			return false
		}
		return r1 == r2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Skip-view equivalence: FromSliceExcept(data, skip) partitions exactly as
// FromSlice over the compacted slice does, and keeps the "source" lineage
// name, so Map over it runs the same task sites as Map over a copy. A
// partition no skip cuts through is data's own capacity-clipped subslice;
// one a skip cuts through is a fresh slice that never aliases data.
func TestFromSliceExceptLaw(t *testing.T) {
	eng := NewEngine()
	rng := rand.New(rand.NewSource(1))
	// Each shape picks whether position i of an n-record input is skipped.
	shapes := []struct {
		name    string
		skipped func(i, n int) bool
	}{
		{"empty", func(int, int) bool { return false }},
		{"sparse", func(int, int) bool { return rng.Intn(20) == 0 }},
		{"dense", func(int, int) bool { return rng.Intn(10) != 0 }},
		{"ends", func(i, n int) bool { return i == 0 || i == n-1 || rng.Intn(50) == 0 }},
		{"every", func(int, int) bool { return true }},
	}
	for _, shape := range shapes {
		name, skipped := shape.name, shape.skipped
		for trial := 0; trial < 40; trial++ {
			n := rng.Intn(2001)
			if trial == 0 {
				n = 0
			}
			data := make([]int, n)
			var skip []int
			var compacted, at []int // at[c] is compacted[c]'s index in data
			for i := range data {
				data[i] = rng.Int()
				if skipped(i, n) {
					skip = append(skip, i)
				} else {
					compacted = append(compacted, data[i])
					at = append(at, i)
				}
			}
			parts := rng.Intn(8) + 1
			view, err := FromSliceExcept(eng, data, skip, parts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := FromSlice(eng, compacted, parts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := view.CollectPartitionsCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.CollectPartitionsCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for p := range want {
				if !equalInts(got[p], want[p]) {
					t.Fatalf("%s n=%d skip=%d parts=%d: partition %d = %v, want %v",
						name, n, len(skip), parts, p, got[p], want[p])
				}
				lo, hi := sliceBounds(len(compacted), parts, p)
				if lo == hi {
					continue
				}
				if at[hi-1]-at[lo] == hi-1-lo {
					if &got[p][0] != &data[at[lo]] || cap(got[p]) != len(got[p]) {
						t.Fatalf("%s n=%d parts=%d: unskipped partition %d is not data[%d:%d:%d]",
							name, n, parts, p, at[lo], at[hi-1]+1, at[hi-1]+1)
					}
				} else if aliases(got[p], data) {
					t.Fatalf("%s n=%d parts=%d: partition %d holds a skip yet aliases data", name, n, parts, p)
				}
			}
			count, err := view.Count()
			if err != nil {
				t.Fatal(err)
			}
			if count != n-len(skip) {
				t.Fatalf("%s n=%d skip=%d: Count = %d, want %d", name, n, len(skip), count, n-len(skip))
			}
			double := func(x int) int { return 2 * x }
			if got, want := Map(view, double).Name(), Map(ref, double).Name(); got != want || got != "source.map" {
				t.Fatalf("mapped view is named %q, FromSlice's map %q; want source.map", got, want)
			}
		}
	}
	for _, bad := range [][]int{{-1}, {3}, {1, 1}, {2, 1}} {
		if _, err := FromSliceExcept(eng, []int{0, 1, 2}, bad, 1); err == nil {
			t.Errorf("skip %v over 3 records accepted", bad)
		}
	}
}

// aliases reports whether part's backing array starts inside data's.
func aliases(part, data []int) bool {
	if cap(part) == 0 || cap(data) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(part)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return p >= lo && p < lo+uintptr(cap(data))*unsafe.Sizeof(data[0])
}

// Fold fusion: Reduce(MapFold(d, first, step)) ≡ Reduce(Map(d, m), f) when
// first is m and step(acc, x) is f(acc, m(x)), over skip views (folded run
// by run in place) and FromSlice sources (folded from their partitions),
// with the same lineage name and the same mapped-record, reduce-op and task
// counters. String concatenation is associative but not commutative, so a
// fold that visits records or partitions out of order shows.
func TestMapFoldLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := func(x int) string { return string(rune('a' + x%26)) }
	f := func(a, b string) string { return a + b }
	step := func(acc string, x int) string { return acc + m(x) }
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(120)
		data := make([]int, n)
		var skip, compacted []int
		for i := range data {
			data[i] = rng.Intn(1000)
			if rng.Intn(4) == 0 {
				skip = append(skip, i)
			} else {
				compacted = append(compacted, data[i])
			}
		}
		parts := rng.Intn(8) + 1
		sources := []func(eng *Engine) (*Dataset[int], error){
			func(eng *Engine) (*Dataset[int], error) { return FromSliceExcept(eng, data, skip, parts) },
			func(eng *Engine) (*Dataset[int], error) { return FromSlice(eng, compacted, parts) },
		}
		for s, source := range sources {
			composedEng, fusedEng := NewEngine(), NewEngine()
			composedDS, err := source(composedEng)
			if err != nil {
				t.Fatal(err)
			}
			fusedDS, err := source(fusedEng)
			if err != nil {
				t.Fatal(err)
			}
			mapped, folded := Map(composedDS, m), MapFold(fusedDS, m, step)
			if mapped.Name() != folded.Name() {
				t.Fatalf("MapFold is named %q, Map %q", folded.Name(), mapped.Name())
			}
			want, wantErr := Reduce(mapped, f)
			got, gotErr := Reduce(folded, f)
			if got != want || (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("source %d n=%d skip=%d parts=%d: fused %q (%v), composed %q (%v)",
					s, n, len(skip), parts, got, gotErr, want, wantErr)
			}
			w, g := composedEng.Metrics(), fusedEng.Metrics()
			if w.RecordsMapped != g.RecordsMapped || w.ReduceOps != g.ReduceOps || w.TasksRun != g.TasksRun {
				t.Fatalf("source %d n=%d parts=%d: fused counters %+v, composed %+v", s, n, parts, g, w)
			}
		}
	}
}

package mapreduce

import (
	"sort"
	"testing"
	"testing/quick"
)

func pairsOf(kv map[string][]int) []Pair[string, int] {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Pair[string, int]
	for _, k := range keys {
		for _, v := range kv[k] {
			out = append(out, Pair[string, int]{Key: k, Value: v})
		}
	}
	return out
}

func TestReduceByKey(t *testing.T) {
	eng := NewEngine()
	input := pairsOf(map[string][]int{"a": {1, 2, 3}, "b": {10}, "c": {4, 4}})
	d, err := FromSlice(eng, input, 3)
	if err != nil {
		t.Fatal(err)
	}
	reduced := ReduceByKey(d, func(a, b int) int { return a + b })
	got, err := reduced.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 6, "b": 10, "c": 8}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for _, p := range got {
		if want[p.Key] != p.Value {
			t.Errorf("key %q = %d, want %d", p.Key, p.Value, want[p.Key])
		}
	}
}

// TestReduceByKeyMatchesSequential is the property test backing the engine's
// core contract: for a commutative, associative reducer, the distributed
// ReduceByKey equals a sequential group-and-fold.
func TestReduceByKeyMatchesSequential(t *testing.T) {
	eng := NewEngine()
	f := func(keysRaw []uint8, valsRaw []int16, partsRaw uint8) bool {
		n := len(keysRaw)
		if len(valsRaw) < n {
			n = len(valsRaw)
		}
		if n == 0 {
			return true
		}
		parts := int(partsRaw%8) + 1
		input := make([]Pair[int, int], n)
		seq := make(map[int]int)
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			k := int(keysRaw[i] % 16)
			v := int(valsRaw[i])
			input[i] = Pair[int, int]{Key: k, Value: v}
			if seen[k] {
				seq[k] += v
			} else {
				seq[k] = v
				seen[k] = true
			}
		}
		d, err := FromSlice(eng, input, parts)
		if err != nil {
			return false
		}
		got, err := ReduceByKey(d, func(a, b int) int { return a + b }).Collect()
		if err != nil {
			return false
		}
		if len(got) != len(seq) {
			return false
		}
		for _, p := range got {
			if seq[p.Key] != p.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceByKeyDeterministicOrder(t *testing.T) {
	eng := NewEngine()
	input := pairsOf(map[string][]int{"x": {1}, "y": {2}, "z": {3}, "w": {4}})
	d, err := FromSlice(eng, input, 4)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ReduceByKey(d, func(a, b int) int { return a + b }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		d2, err := FromSlice(eng, input, 4)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ReduceByKey(d2, func(a, b int) int { return a + b }).Collect()
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("trial %d: output order changed: %v vs %v", trial, first, again)
			}
		}
	}
}

func TestGroupByKey(t *testing.T) {
	eng := NewEngine()
	input := pairsOf(map[string][]int{"a": {3, 1, 2}, "b": {7}})
	d, err := FromSlice(eng, input, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GroupByKey(d).Collect()
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string][]int)
	for _, p := range got {
		byKey[p.Key] = p.Value
	}
	if len(byKey["a"]) != 3 || len(byKey["b"]) != 1 {
		t.Fatalf("group sizes wrong: %v", byKey)
	}
	// Source order within a key is preserved.
	wantA := []int{3, 1, 2}
	for i, v := range byKey["a"] {
		if v != wantA[i] {
			t.Fatalf("group a = %v, want %v", byKey["a"], wantA)
		}
	}
}

// TestJoinMatchesNestedLoop checks the distributed hash join against a
// nested-loop reference on random inputs.
func TestJoinMatchesNestedLoop(t *testing.T) {
	eng := NewEngine()
	f := func(leftRaw, rightRaw []uint8) bool {
		left := make([]Pair[int, int], len(leftRaw))
		for i, k := range leftRaw {
			left[i] = Pair[int, int]{Key: int(k % 8), Value: i}
		}
		right := make([]Pair[int, string], len(rightRaw))
		for i, k := range rightRaw {
			right[i] = Pair[int, string]{Key: int(k % 8), Value: string(rune('A' + i%26))}
		}
		want := 0
		for _, l := range left {
			for _, r := range right {
				if l.Key == r.Key {
					want++
				}
			}
		}
		a, err := FromSlice(eng, left, 3)
		if err != nil {
			return false
		}
		b, err := FromSlice(eng, right, 3)
		if err != nil {
			return false
		}
		j, err := Join(a, b)
		if err != nil {
			return false
		}
		got, err := j.Collect()
		if err != nil {
			return false
		}
		if len(got) != want {
			return false
		}
		for _, p := range got {
			// Every output key must come from both sides.
			okL, okR := false, false
			for _, l := range left {
				if l.Key == p.Key && l.Value == p.Value.Left {
					okL = true
					break
				}
			}
			for _, r := range right {
				if r.Key == p.Key && r.Value == p.Value.Right {
					okR = true
					break
				}
			}
			if !okL || !okR {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinCountsTwoShuffles(t *testing.T) {
	eng := NewEngine()
	a, err := FromSlice(eng, []Pair[int, int]{{Key: 1, Value: 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromSlice(eng, []Pair[int, int]{{Key: 1, Value: 2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Metrics().ShuffleRounds
	j, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Collect(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().ShuffleRounds - before; got != 2 {
		t.Fatalf("join used %d shuffle rounds, want 2", got)
	}
}

func TestJoinAcrossEnginesRejected(t *testing.T) {
	a, err := FromSlice(NewEngine(), []Pair[int, int]{{Key: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromSlice(NewEngine(), []Pair[int, int]{{Key: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Join(a, b); err == nil {
		t.Fatal("cross-engine join accepted")
	}
}

func TestKeyByValues(t *testing.T) {
	eng := NewEngine()
	d, err := FromSlice(eng, []int{1, 2, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	keyed := KeyBy(d, func(x int) string {
		if x%2 == 0 {
			return "even"
		}
		return "odd"
	})
	pairs, err := keyed.Collect()
	if err != nil {
		t.Fatal(err)
	}
	vs, err := Values(keyed).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 || len(vs) != 4 {
		t.Fatalf("pairs/values lengths = %d/%d, want 4/4", len(pairs), len(vs))
	}
	for i, p := range pairs {
		want := "odd"
		if vs[i]%2 == 0 {
			want = "even"
		}
		if p.Key != want || p.Value != vs[i] || vs[i] != i+1 {
			t.Fatalf("unexpected keyed record %d: %+v, value %d", i, p, vs[i])
		}
	}
}

func TestHashOfStableAcrossTypes(t *testing.T) {
	if hashOf("a") == hashOf("b") {
		t.Error("adjacent strings collide")
	}
	if hashOf(1) == hashOf(2) {
		t.Error("adjacent ints collide")
	}
	if hashOf(true) == hashOf(false) {
		t.Error("booleans collide")
	}
	type composite struct{ A, B int }
	if hashOf(composite{1, 2}) != hashOf(composite{1, 2}) {
		t.Error("composite key hash unstable")
	}
	if hashOf(composite{1, 2}) == hashOf(composite{2, 1}) {
		t.Error("distinct composites collide")
	}
}

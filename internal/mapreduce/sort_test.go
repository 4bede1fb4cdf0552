package mapreduce

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestSortBy(t *testing.T) {
	eng := NewEngine()
	data := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	d, err := FromSlice(eng, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := SortBy(d, 4, func(a, b int) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	if sorted.NumPartitions() != 4 {
		t.Fatalf("NumPartitions = %d, want 4", sorted.NumPartitions())
	}
	got, err := sorted.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("sorted output = %v", got)
		}
	}
	if _, err := SortBy(d, 0, func(a, b int) bool { return a < b }); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestSortByCountsShuffle(t *testing.T) {
	eng := NewEngine()
	d, err := FromSlice(eng, intsUpTo(100), 4)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := SortBy(d, 2, func(a, b int) bool { return a > b })
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Metrics().ShuffleRounds
	if _, err := sorted.Collect(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().ShuffleRounds - before; got != 1 {
		t.Fatalf("sort used %d shuffle rounds, want 1", got)
	}
	// Re-collecting does not re-shuffle (shared sorted materialization).
	if _, err := sorted.Collect(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().ShuffleRounds - before; got != 1 {
		t.Fatalf("re-collect re-shuffled: %d rounds", got)
	}
}

func TestSortByStable(t *testing.T) {
	type rec struct{ k, seq int }
	eng := NewEngine()
	data := []rec{{1, 0}, {0, 1}, {1, 2}, {0, 3}, {1, 4}}
	d, err := FromSlice(eng, data, 2)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := SortBy(d, 1, func(a, b rec) bool { return a.k < b.k })
	if err != nil {
		t.Fatal(err)
	}
	got, err := sorted.Collect()
	if err != nil {
		t.Fatal(err)
	}
	prevSeq := -1
	for _, r := range got {
		if r.k == 1 {
			if r.seq < prevSeq {
				t.Fatalf("stability broken: %v", got)
			}
			prevSeq = r.seq
		}
	}
}

// TestSortByProperty checks SortBy against a stable sort of the whole
// input, for any input partitioning, any output partition count, and runs
// kept in memory (budget -1) or spilled (budget 0). Keys collide heavily, so
// the check also pins the merge's tie-break by source order.
func TestSortByProperty(t *testing.T) {
	f := func(raw []int16, partsRaw, outRaw uint8) bool {
		data := make([]Pair[int, int], len(raw))
		for i, v := range raw {
			data[i] = Pair[int, int]{Key: int(v) >> 10, Value: i}
		}
		want := make([]Pair[int, int], len(data))
		copy(want, data)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		parts := int(partsRaw%5) + 1
		outParts := int(outRaw%5) + 1
		for _, budget := range []int64{-1, 0} {
			eng := NewEngine(WithMemoryBudget(budget))
			got, err := func() ([]Pair[int, int], error) {
				defer eng.Close()
				d, err := FromSlice(eng, data, parts)
				if err != nil {
					return nil, err
				}
				sorted, err := SortBy(d, outParts, func(a, b Pair[int, int]) bool { return a.Key < b.Key })
				if err != nil {
					return nil, err
				}
				return sorted.Collect()
			}()
			if err != nil || len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package mapreduce

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
)

func intsUpTo(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

func TestFromSliceValidation(t *testing.T) {
	eng := NewEngine()
	if _, err := FromSlice(eng, []int{1}, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := FromSlice(eng, []int{1}, -3); err == nil {
		t.Fatal("negative partitions accepted")
	}
}

func TestFromSliceCopiesInput(t *testing.T) {
	eng := NewEngine()
	data := []int{1, 2, 3}
	d, err := FromSlice(eng, data, 2)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 99
	got, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("dataset observed caller mutation: %v", got)
	}
}

func TestSliceBoundsPartitionAll(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		parts := int(pRaw%16) + 1
		covered := 0
		prevHi := 0
		for p := 0; p < parts; p++ {
			lo, hi := sliceBounds(n, parts, p)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectPreservesOrder(t *testing.T) {
	eng := NewEngine()
	for _, parts := range []int{1, 2, 3, 7, 64} {
		d, err := FromSlice(eng, intsUpTo(100), parts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("parts=%d: collected %d records, want 100", parts, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("parts=%d: order broken at %d: %d", parts, i, v)
			}
		}
	}
}

func TestCount(t *testing.T) {
	eng := NewEngine()
	d, err := FromSlice(eng, intsUpTo(523), 8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 523 {
		t.Fatalf("Count = %d, want 523", n)
	}
}

func TestFromPartitions(t *testing.T) {
	eng := NewEngine()
	d, err := FromPartitions(eng, [][]int{{1, 2}, {3}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d, want 3", d.NumPartitions())
	}
	got, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Collect = %v, want %v", got, want)
		}
	}
	if _, err := FromPartitions[int](eng, nil); err == nil {
		t.Fatal("empty partition list accepted")
	}
}

func TestMapFilter(t *testing.T) {
	eng := NewEngine()
	d, err := FromSlice(eng, intsUpTo(20), 4)
	if err != nil {
		t.Fatal(err)
	}
	doubled := Map(d, func(x int) int { return 2 * x })
	evens := Filter(doubled, func(x int) bool { return x%4 == 0 })
	got, err := evens.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// doubled: 0..38 even; evens keeps multiples of 4: 0,4,...,36 (10 values)
	if len(got) != 10 {
		t.Fatalf("got %d records, want 10", len(got))
	}
	for i, v := range got {
		if v != 4*i {
			t.Fatalf("record %d = %d, want %d", i, v, 4*i)
		}
	}
}

func TestMapPartitions(t *testing.T) {
	eng := NewEngine()
	d, err := FromSlice(eng, intsUpTo(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	sums := MapPartitions(d, func(_ int, in []int) ([]int, error) {
		total := 0
		for _, v := range in {
			total += v
		}
		return []int{total}, nil
	})
	got, err := sums.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d partition sums, want 3", len(got))
	}
	total := 0
	for _, v := range got {
		total += v
	}
	if total != 45 {
		t.Fatalf("partition sums total %d, want 45", total)
	}
}

func TestMapPartitionsError(t *testing.T) {
	eng := NewEngine()
	d, err := FromSlice(eng, intsUpTo(10), 2)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("boom")
	bad := MapPartitions(d, func(p int, _ []int) ([]int, error) {
		if p == 1 {
			return nil, wantErr
		}
		return nil, nil
	})
	if _, err := bad.Collect(); !errors.Is(err, wantErr) {
		t.Fatalf("Collect error = %v, want %v", err, wantErr)
	}
}

func TestUnionReduceDecomposition(t *testing.T) {
	// The associativity identity UPA relies on: reducing the union of two
	// datasets' partitions equals f(Reduce(a), Reduce(b)).
	eng := NewEngine()
	sum := func(a, b int) int { return a + b }
	f := func(xsRaw, ysRaw []int16) bool {
		xs := make([]int, 0, len(xsRaw)+1)
		for _, v := range xsRaw {
			xs = append(xs, int(v))
		}
		ys := make([]int, 0, len(ysRaw)+1)
		for _, v := range ysRaw {
			ys = append(ys, int(v))
		}
		if len(xs) == 0 || len(ys) == 0 {
			return true
		}
		a, err := FromSlice(eng, xs, 2)
		if err != nil {
			return false
		}
		b, err := FromSlice(eng, ys, 3)
		if err != nil {
			return false
		}
		pa, err := a.CollectPartitionsCtx(context.Background())
		if err != nil {
			return false
		}
		pb, err := b.CollectPartitionsCtx(context.Background())
		if err != nil {
			return false
		}
		u, err := FromPartitions(eng, append(pa, pb...))
		if err != nil {
			return false
		}
		whole, err := Reduce(u, sum)
		if err != nil {
			return false
		}
		ra, err := Reduce(a, sum)
		if err != nil {
			return false
		}
		rb, err := Reduce(b, sum)
		if err != nil {
			return false
		}
		return whole == sum(ra, rb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceEmpty(t *testing.T) {
	eng := NewEngine()
	d, err := FromSlice(eng, []int{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reduce(d, func(a, b int) int { return a + b }); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("Reduce(empty) error = %v, want ErrEmptyDataset", err)
	}
}

func TestReduceSkipsEmptyPartitions(t *testing.T) {
	eng := NewEngine()
	d, err := FromPartitions(eng, [][]int{{}, {5}, {}, {7}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reduce(d, func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Fatalf("Reduce = %d, want 12", got)
	}
}

func TestReduceSlice(t *testing.T) {
	if _, ok := ReduceSlice(nil, func(a, b int) int { return a + b }); ok {
		t.Fatal("ReduceSlice of empty slice reported ok")
	}
	got, ok := ReduceSlice([]int{1, 2, 3}, func(a, b int) int { return a + b })
	if !ok || got != 6 {
		t.Fatalf("ReduceSlice = %d, %v; want 6, true", got, ok)
	}
}

func TestRepartition(t *testing.T) {
	eng := NewEngine()
	d, err := FromSlice(eng, intsUpTo(10), 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Repartition(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPartitions() != 2 {
		t.Fatalf("NumPartitions = %d, want 2", r.NumPartitions())
	}
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("repartition broke order at %d: %d", i, v)
		}
	}
	if _, err := Repartition(d, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

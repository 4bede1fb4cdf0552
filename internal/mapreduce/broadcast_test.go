package mapreduce

import "testing"

func TestBroadcast(t *testing.T) {
	eng := NewEngine(WithWorkers(4))
	b, err := NewBroadcast(eng, map[string]int{"a": 1, "b": 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Value()["a"] != 1 || b.Value()["b"] != 2 {
		t.Fatalf("broadcast payload wrong: %v", b.Value())
	}
	m := eng.Metrics()
	if m.BroadcastsSent != 1 {
		t.Errorf("BroadcastsSent = %d, want 1", m.BroadcastsSent)
	}
	if m.BroadcastRecords != 2*4 { // records × workers
		t.Errorf("BroadcastRecords = %d, want 8", m.BroadcastRecords)
	}
	if _, err := NewBroadcast(eng, 0, -1); err == nil {
		t.Error("negative cardinality accepted")
	}
}

func TestBroadcastUsedInsideTasks(t *testing.T) {
	eng := NewEngine()
	lookup, err := NewBroadcast(eng, map[int]int{0: 100, 1: 200}, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromSlice(eng, intsUpTo(50), 4)
	if err != nil {
		t.Fatal(err)
	}
	mapped := Map(d, func(x int) int { return lookup.Value()[x%2] })
	sum, err := Reduce(mapped, func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 25*100+25*200 {
		t.Fatalf("sum through broadcast = %d", sum)
	}
}

package sql

import (
	"math"
	"runtime"
	"testing"

	"upa/internal/mapreduce"
)

func TestKeyCountSaturates(t *testing.T) {
	const max = math.MaxInt64
	cases := []struct{ a, b, sum, product int64 }{
		{0, 0, 0, 0},
		{0, 1, 1, 0},
		{1, 1, 2, 1},
		{0, max, max, 0},
		{1, max, max, max},
		{max, max, max, max},
	}
	for _, c := range cases {
		for _, ab := range [][2]int64{{c.a, c.b}, {c.b, c.a}} {
			if got := satAdd(ab[0], ab[1]); got != c.sum {
				t.Errorf("satAdd(%d, %d) = %d, want %d", ab[0], ab[1], got, c.sum)
			}
			if got := satMul(ab[0], ab[1]); got != c.product {
				t.Errorf("satMul(%d, %d) = %d, want %d", ab[0], ab[1], got, c.product)
			}
		}
	}
}

// peopleVisits is COUNT(*) over people ⋈ visits ON city = town WHERE
// age > 30: people has n rows in city "ny", the first adults of them aged
// 40 and the rest 20; visits has m rows in town "ny".
func peopleVisits(n, adults, m int) Plan {
	people := make([]Row, n)
	for i := range people {
		age := int64(20)
		if i < adults {
			age = 40
		}
		people[i] = Row{Int(int64(i)), Str("ny"), Int(age)}
	}
	visits := make([]Row, m)
	for i := range visits {
		visits[i] = Row{Str("ny"), Int(int64(i % 7))}
	}
	joined := JoinOn(
		Scan("people", Schema{{Name: "id", Kind: KindInt}, {Name: "city", Kind: KindString}, {Name: "age", Kind: KindInt}}, people),
		"city",
		Scan("visits", Schema{{Name: "town", Kind: KindString}, {Name: "day", Kind: KindInt}}, visits),
		"town")
	return GroupBy(Where(joined, Gt(Col("age"), Lit(Int(30)))), nil, AggSpec{Name: "n", Func: AggCount})
}

// TestKeyCountNeedsNoJoin is the regression test of a join whose answer
// count is the product of its inputs: 1 000 people and 5 000 visits all in
// one city have 5 M answers, which a materializing compile allocates
// gigabytes for. Key counting needs memory in the rows, not the answers.
func TestKeyCountNeedsNoJoin(t *testing.T) {
	plan := peopleVisits(1000, 1000, 5000)
	e := mapreduce.NewEngine()
	defer e.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	q, data, err := CompileDPCount(e, plan, "people")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Errorf("compile allocated %d bytes, want < 64 MiB", alloc)
	}
	if len(data) != 1000 {
		t.Fatalf("%d protected records, want 1000", len(data))
	}
	for i, ir := range data {
		if got := q.Map(ir)[0]; got != 5000 {
			t.Fatalf("influence of row %d = %v, want 5000", i, got)
		}
	}
}

// TestKeyCountCountersIgnoreTheData is the regression test of engine
// counters leaking the size of a filtered protected input: compiling the same
// counted plan over datasets of the same row counts must move the engine's
// record and shuffle counters by the same amounts, however many rows pass
// the filter.
func TestKeyCountCountersIgnoreTheData(t *testing.T) {
	delta := func(adults int) mapreduce.MetricsSnapshot {
		e := mapreduce.NewEngine()
		defer e.Close()
		before := e.Metrics()
		if _, _, err := CompileDPCount(e, peopleVisits(1000, adults, 2000), "people"); err != nil {
			t.Fatal(err)
		}
		after := e.Metrics()
		return mapreduce.MetricsSnapshot{
			RecordsShuffled:    after.RecordsShuffled - before.RecordsShuffled,
			ShuffleRounds:      after.ShuffleRounds - before.ShuffleRounds,
			RecordsMapped:      after.RecordsMapped - before.RecordsMapped,
			RecordsPreCombine:  after.RecordsPreCombine - before.RecordsPreCombine,
			RecordsPostCombine: after.RecordsPostCombine - before.RecordsPostCombine,
			SpilledBytes:       after.SpilledBytes - before.SpilledBytes,
			BroadcastRecords:   after.BroadcastRecords - before.BroadcastRecords,
		}
	}
	if few, many := delta(300), delta(700); few != many {
		t.Fatalf("counter deltas depend on the data: %+v with 300 adults, %+v with 700", few, many)
	}
}

// TestKeyCountRejectsKindMismatch pins that the strategy does not change
// what bad data does: both read the filtered relation through its image, so
// a cell contradicting its declared kind fails a counted plan and a fallback
// plan alike, with rowsToBatch's error, whichever side is protected.
func TestKeyCountRejectsKindMismatch(t *testing.T) {
	cols := Schema{{Name: "k", Kind: KindInt}, {Name: "v", Kind: KindInt}}
	rows := []Row{{Int(10), Int(1)}, {Int(11), Float(2.5)}}
	_, want := rowsToBatch(cols, rows)
	bad := Where(Scan("t", cols, rows), Gt(Col("k"), Lit(Int(0))))
	joined := JoinOn(ordersScan(), "custkey", bad, "k")
	count := AggSpec{Name: "n", Func: AggCount}
	plans := map[bool]Plan{
		true:  GroupBy(joined, nil, count),
		false: GroupBy(Where(joined, Lt(Col("orderkey"), Col("v"))), nil, count),
	}
	for counted, plan := range plans {
		for _, table := range []string{"orders", "t"} {
			if got := countsKeys(t, plan, table); got != counted {
				t.Fatalf("%s protecting %s: key counting %v, want %v", Describe(plan), table, got, counted)
			}
			if _, _, err := CompileDPCount(eng(), plan, table); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s protecting %s: error %v, want %v", Describe(plan), table, err, want)
			}
		}
	}
}

package sql

import (
	"context"
	"fmt"
	"math"
	"testing"

	"upa/internal/mapreduce"
)

// partialsOf runs the aggregate's per-partition fold through the row feeder
// or the batch feeder and returns each partition's partial sequence.
func partialsOf(t *testing.T, p *AggregatePlan, columnar bool) [][]mapreduce.Pair[string, groupAcc] {
	t.Helper()
	e := eng()
	ds, err := (&compiler{eng: e, columnar: columnar}).partialAggregate(p)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := ds.CollectPartitionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if batched := e.Metrics().BatchesProcessed > 0; batched != (columnar && p.Input.(*ScanPlan).numRows() > 0) {
		t.Fatalf("columnar=%v but the fold was batch-fed=%v", columnar, batched)
	}
	return parts
}

// TestFoldFeedersEmitIdenticalPartials feeds the same tuples to the one
// aggregate fold through its two feeders — rows with bound expressions,
// batches with kernels — and requires the identical partial sequence from
// every partition: keys, first-seen order, counts, and the bits of every sum,
// minimum and maximum. The values are the delicate ones: NaN, -0 (a group
// must start as its first tuple, not as 0 + it), and integers past 2^53.
func TestFoldFeedersEmitIdenticalPartials(t *testing.T) {
	all := []AggSpec{
		{Name: "n", Func: AggCount},
		{Name: "sum", Func: AggSum, Arg: Col("f")},
		{Name: "avg", Func: AggAvg, Arg: Add(Col("f"), Lit(Float(0.5)))},
		{Name: "min", Func: AggMin, Arg: Col("f")},
		{Name: "max", Func: AggMax, Arg: Col("k")},
	}
	negZeroFirst := Scan("z", wideScan().Cols, []Row{
		{Int(1 << 55), Float(math.Copysign(0, -1)), Str("a"), Bool(true)},
		{Int(1<<55 + 1), Float(math.Copysign(0, -1)), Str("a"), Bool(true)},
		{Int(-1), Float(math.NaN()), Str("a"), Bool(false)},
		{Int(0), Float(3), Str("a"), Bool(false)},
	})
	empty := Scan("wide", wideScan().Cols, nil)
	cases := []struct {
		name    string
		input   *ScanPlan
		groupBy []string
	}{
		{"global", wideScan(), nil},
		{"grouped", wideScan(), []string{"s", "b"}},
		{"grouped by float", wideScan(), []string{"f"}},
		{"grouped by int", wideScan(), []string{"k"}},
		{"negative zero first/global", negZeroFirst, nil},
		{"negative zero first/grouped", negZeroFirst, []string{"b"}},
		{"empty/global", empty, nil},
		{"empty/grouped", empty, []string{"s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := GroupBy(tc.input, tc.groupBy, all...)
			rowFed, batchFed := partialsOf(t, plan, false), partialsOf(t, plan, true)
			if len(rowFed) != len(batchFed) {
				t.Fatalf("%d row-fed partitions, %d batch-fed", len(rowFed), len(batchFed))
			}
			groups := 0
			for p := range rowFed {
				if len(rowFed[p]) != len(batchFed[p]) {
					t.Fatalf("partition %d: %d row-fed partials, %d batch-fed", p, len(rowFed[p]), len(batchFed[p]))
				}
				for i, a := range rowFed[p] {
					b := batchFed[p][i]
					where := fmt.Sprintf("partition %d partial %d", p, i)
					if a.Key != b.Key || rowKey(a.Value.Keys) != rowKey(b.Value.Keys) || a.Key != rowKey(a.Value.Keys) {
						t.Fatalf("%s: keys %q %v vs %q %v", where, a.Key, a.Value.Keys, b.Key, b.Value.Keys)
					}
					if a.Value.State.Count != b.Value.State.Count {
						t.Fatalf("%s: count %d vs %d", where, a.Value.State.Count, b.Value.State.Count)
					}
					assertSameBits(t, where+" sums", a.Value.State.Sums, b.Value.State.Sums)
					assertSameBits(t, where+" mins", a.Value.State.Mins, b.Value.State.Mins)
					assertSameBits(t, where+" maxs", a.Value.State.Maxs, b.Value.State.Maxs)
					groups++
				}
			}
			if tc.input.numRows() == 0 && groups != 0 {
				t.Fatalf("empty input folded into %d groups", groups)
			}
		})
	}

	// The -0 case again by value: the sum of two -0 is -0, which a fold
	// starting from zero would have lost.
	sum := partialsOf(t, GroupBy(Scan("z", negZeroFirst.Cols, negZeroFirst.Rows[:2]), nil, all[1]), true)
	if got := sum[0][0].Value.State.Sums[0]; !math.Signbit(got) || got != 0 {
		t.Fatalf("sum of -0 and -0 folded to %v", got)
	}
}

func assertSameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d slots", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v (%#x) vs %v (%#x)", what, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// TestRowFedAggregateCombinesBeforeReduceByKey pins the row feeder's shape:
// an aggregate above a join folds each partition before the shuffle, so
// ReduceByKey's combiner is handed one record per group per partition, not
// one per joined row.
func TestRowFedAggregateCombinesBeforeReduceByKey(t *testing.T) {
	var left, right []Row
	for i := 0; i < 60; i++ {
		left = append(left, Row{Int(int64(i % 6)), Int(int64(i % 3))})
	}
	for i := 0; i < 6; i++ {
		right = append(right, Row{Int(int64(i)), Float(float64(i))})
	}
	join := JoinOn(
		Scan("l", Schema{{Name: "k", Kind: KindInt}, {Name: "g", Kind: KindInt}}, left), "k",
		Scan("r", Schema{{Name: "k2", Kind: KindInt}, {Name: "w", Kind: KindFloat}}, right), "k2")

	plan := GroupBy(join, []string{"g"},
		AggSpec{Name: "n", Func: AggCount},
		AggSpec{Name: "w", Func: AggSum, Arg: Col("w")})
	for _, in := range []interior{interiorColumnar, interiorRaw} {
		// What the fold is fed: the aggregate's input as this interior
		// compiles it, partition by partition.
		lowered, c := in.lower(eng(), plan)
		input := lowered.(*AggregatePlan).Input
		schema, err := input.Schema()
		if err != nil {
			t.Fatal(err)
		}
		g, err := schema.IndexOf("g")
		if err != nil {
			t.Fatal(err)
		}
		joined, err := c.compile(input)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := joined.CollectPartitionsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var joinedRows, groupsPerPartition int64
		for _, part := range parts {
			seen := map[Value]bool{}
			for _, r := range part {
				seen[r[g]] = true
			}
			joinedRows += int64(len(part))
			groupsPerPartition += int64(len(seen))
		}
		if joinedRows != 60 || groupsPerPartition >= joinedRows {
			t.Fatalf("fixture: %d joined rows in %d (partition, group) cells", joinedRows, groupsPerPartition)
		}

		e := eng()
		rows, _, err := in.execute(e, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("%d groups, want 3", len(rows))
		}
		if got := e.Metrics().RecordsPreCombine; got != groupsPerPartition {
			t.Fatalf("ReduceByKey combined %d records, want %d (one per group per partition of %d joined rows)",
				got, groupsPerPartition, joinedRows)
		}
	}
}

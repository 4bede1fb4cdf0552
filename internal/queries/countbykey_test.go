package queries

import (
	"maps"
	"math/rand"
	"testing"

	"upa/internal/mapreduce"
)

// countByKeyJob is the engine job countByKey replaced, kept as the
// reference: copy, filter, map to pairs, a hash-shuffled ReduceByKey,
// collect, and a map rebuild.
func countByKeyJob[T any, K comparable](eng *mapreduce.Engine, records []T, key func(T) K, keep func(T) bool) (map[K]float64, error) {
	parts := eng.Workers()
	if parts > len(records) {
		parts = len(records)
	}
	ds, err := mapreduce.FromSlice(eng, records, parts)
	if err != nil {
		return nil, err
	}
	if keep != nil {
		ds = mapreduce.Filter(ds, keep)
	}
	ones := mapreduce.Map(ds, func(t T) mapreduce.Pair[K, float64] {
		return mapreduce.Pair[K, float64]{Key: key(t), Value: 1}
	})
	pairs, err := mapreduce.ReduceByKey(ones, func(a, b float64) float64 { return a + b }).Collect()
	if err != nil {
		return nil, err
	}
	out := make(map[K]float64, len(pairs))
	for _, p := range pairs {
		out[p.Key] = p.Value
	}
	// The lookup table ships to every worker as a broadcast variable, the
	// §V-B evaluation strategy; registering it meters the shipment.
	b, err := mapreduce.NewBroadcast(eng, out, len(out))
	if err != nil {
		return nil, err
	}
	return b.Value(), nil
}

// keyedRow is a record whose keys collide often: a few dozen distinct a's
// and a handful of b's.
type keyedRow struct{ a, b int }

// TestCountByKeyMatchesJob checks the per-partition count against the
// reference job on random inputs: the same table, the same error on an
// empty input, and the same shuffle and broadcast metering, for int and
// [2]int keys, with and without a filter, on 1–8 workers.
func TestCountByKeyMatchesJob(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	keep := func(r keyedRow) bool { return r.b%3 != 0 }
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(3000)
		if trial%25 == 0 {
			n = 0
		}
		rows := make([]keyedRow, n)
		distinct := rng.Intn(60) + 1
		for i := range rows {
			rows[i] = keyedRow{a: rng.Intn(distinct), b: rng.Intn(7)}
		}
		eng := mapreduce.NewEngine(mapreduce.WithWorkers(rng.Intn(8) + 1))
		filter := keep
		if trial%2 == 0 {
			filter = nil
		}
		checkCountByKey(t, eng, rows, func(r keyedRow) int { return r.a }, filter)
		checkCountByKey(t, eng, rows, func(r keyedRow) [2]int { return [2]int{r.a, r.b} }, filter)
		eng.Close()
	}
}

func checkCountByKey[K comparable](t *testing.T, eng *mapreduce.Engine, rows []keyedRow, key func(keyedRow) K, keep func(keyedRow) bool) {
	t.Helper()
	before := eng.Metrics()
	want, wantErr := countByKeyJob(eng, rows, key, keep)
	mid := eng.Metrics()
	got, gotErr := countByKey(eng, rows, key, keep)
	after := eng.Metrics()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("n=%d workers=%d: error %v, want %v", len(rows), eng.Workers(), gotErr, wantErr)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("n=%d workers=%d filtered=%t: counts differ\ngot  %v\nwant %v",
			len(rows), eng.Workers(), keep != nil, got, want)
	}
	ref, d := mid.Sub(before), after.Sub(mid)
	if d.ShuffleRounds != ref.ShuffleRounds || d.RecordsShuffled != ref.RecordsShuffled ||
		d.BroadcastsSent != ref.BroadcastsSent || d.BroadcastRecords != ref.BroadcastRecords {
		t.Fatalf("n=%d workers=%d filtered=%t: metering (shuffles %d, shuffled %d, broadcasts %d, broadcast records %d), want (%d, %d, %d, %d)",
			len(rows), eng.Workers(), keep != nil,
			d.ShuffleRounds, d.RecordsShuffled, d.BroadcastsSent, d.BroadcastRecords,
			ref.ShuffleRounds, ref.RecordsShuffled, ref.BroadcastsSent, ref.BroadcastRecords)
	}
}

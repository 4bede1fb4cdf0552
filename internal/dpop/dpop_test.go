package dpop

import (
	"math"
	"testing"
	"testing/quick"

	"upa/internal/mapreduce"
	"upa/internal/stats"
)

func newEngine() *mapreduce.Engine { return mapreduce.NewEngine() }

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func sum(a, b float64) float64 { return a + b }

func TestDPReadValidation(t *testing.T) {
	eng := newEngine()
	rng := stats.NewRNG(1)
	if _, err := DPRead(eng, []float64{}, 5, rng); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := DPRead(eng, seq(10), 0, rng); err == nil {
		t.Error("zero sample size accepted")
	}
	if _, err := DPRead[float64](nil, seq(10), 5, rng); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestDPReadPartitionsCompletely(t *testing.T) {
	eng := newEngine()
	d, err := DPRead(eng, seq(100), 30, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.SampleSize() != 30 {
		t.Fatalf("SampleSize = %d, want 30", d.SampleSize())
	}
	rest, err := d.RestSize()
	if err != nil {
		t.Fatal(err)
	}
	if rest != 70 {
		t.Fatalf("RestSize = %d, want 70", rest)
	}
	// S holds distinct records, and S' is x in its own order minus S: the
	// two are disjoint and together cover x.
	sampled := make(map[float64]bool, 30)
	for _, v := range d.samples {
		sampled[v] = true
	}
	if len(sampled) != 30 {
		t.Fatalf("S holds %d distinct records, want 30", len(sampled))
	}
	var want []float64
	for _, v := range seq(100) {
		if !sampled[v] {
			want = append(want, v)
		}
	}
	restRecs, err := d.rest.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(restRecs) != len(want) {
		t.Fatalf("S' = %v, want %v", restRecs, want)
	}
	for i := range want {
		if restRecs[i] != want[i] {
			t.Fatalf("S' = %v, want x minus S in order: %v", restRecs, want)
		}
	}
}

func TestDPReadClampsSampleSize(t *testing.T) {
	eng := newEngine()
	d, err := DPRead(eng, seq(5), 100, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if d.SampleSize() != 5 {
		t.Fatalf("SampleSize = %d, want 5", d.SampleSize())
	}
	rest, err := d.RestSize()
	if err != nil || rest != 0 {
		t.Fatalf("RestSize = %d, %v; want 0, nil", rest, err)
	}
}

func TestMapDPAppliesBothSides(t *testing.T) {
	eng := newEngine()
	d, err := DPRead(eng, seq(50), 10, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := MapDP(d, func(x float64) float64 { return 2 * x })
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReduceDP(doubled, sum)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (49.0 * 50 / 2); res.Result != want {
		t.Fatalf("Result = %v, want %v", res.Result, want)
	}
}

func TestReduceDPNeighboursExact(t *testing.T) {
	// With n == |x|, every removal neighbour is produced exactly.
	eng := newEngine()
	data := []float64{3, 1, 4, 1, 5}
	d, err := DPRead(eng, data, len(data), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReduceDP(d, sum)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != 14 {
		t.Fatalf("Result = %v, want 14", res.Result)
	}
	if len(res.Neighbours) != 5 {
		t.Fatalf("%d neighbours, want 5", len(res.Neighbours))
	}
	// Each neighbour is 14 - x_i for a unique record.
	counts := map[float64]int{}
	for _, n := range res.Neighbours {
		counts[14-n]++
	}
	want := map[float64]int{3: 1, 1: 2, 4: 1, 5: 1}
	for v, c := range want {
		if counts[v] != c {
			t.Fatalf("removal multiset = %v, want %v", counts, want)
		}
	}
	if got := res.SpreadFloat64(func(x float64) float64 { return x }); got != 5 {
		t.Fatalf("SpreadFloat64 = %v, want 5 (max |x_i|)", got)
	}
}

// TestReduceDPMatchesDirect is the operator-level union-preserving
// property: the reused neighbours equal from-scratch recomputation on
// random inputs.
func TestReduceDPMatchesDirect(t *testing.T) {
	eng := newEngine()
	f := func(raw []int16, nRaw uint8, seed uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 50 {
			raw = raw[:50]
		}
		data := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			data[i] = float64(v)
			total += float64(v)
		}
		n := int(nRaw)%len(raw) + 1
		d, err := DPRead(eng, data, n, stats.NewRNG(uint64(seed)))
		if err != nil {
			return false
		}
		res, err := ReduceDP(d, sum)
		if err != nil {
			return false
		}
		if math.Abs(res.Result-total) > 1e-9*math.Max(1, math.Abs(total)) {
			return false
		}
		// Every neighbour must equal total minus some record value.
		for _, nb := range res.Neighbours {
			removed := total - nb
			found := false
			for _, v := range data {
				if math.Abs(removed-v) < 1e-6 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// A single-record dataset has no reducible removal neighbour.
		return len(res.Neighbours) == n || len(data) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceDPNonCommutativeSafeOrder(t *testing.T) {
	// max is commutative and associative; verify a non-sum reducer.
	eng := newEngine()
	data := []float64{2, 9, 4, 7}
	d, err := DPRead(eng, data, 4, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReduceDP(d, math.Max)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != 9 {
		t.Fatalf("max = %v, want 9", res.Result)
	}
	// Removing 9 leaves max 7; removing anything else leaves 9.
	saw7 := false
	for _, n := range res.Neighbours {
		switch n {
		case 9:
		case 7:
			saw7 = true
		default:
			t.Fatalf("unexpected neighbour max %v", n)
		}
	}
	if !saw7 {
		t.Fatal("removal of the maximum never observed")
	}
}

func TestFilterDP(t *testing.T) {
	eng := newEngine()
	d, err := DPRead(eng, seq(20), 20, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	evens, err := FilterDP(d, func(x float64) bool { return math.Mod(x, 2) == 0 }, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReduceDP(evens, sum)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.0 + 2 + 4 + 6 + 8 + 10 + 12 + 14 + 16 + 18; res.Result != want {
		t.Fatalf("filtered sum = %v, want %v", res.Result, want)
	}
}

func TestReduceDPSingleRecord(t *testing.T) {
	eng := newEngine()
	d, err := DPRead(eng, []float64{42}, 1, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReduceDP(d, sum)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != 42 {
		t.Fatalf("Result = %v, want 42", res.Result)
	}
	// Removing the only record leaves an empty dataset: no neighbour value.
	if len(res.Neighbours) != 0 {
		t.Fatalf("neighbours = %v, want none", res.Neighbours)
	}
}

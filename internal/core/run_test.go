package core

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"upa/internal/mapreduce"
	"upa/internal/stats"
)

// countQuery counts its records: the simplest Count-type query (TPCH1's
// shape), whose removal neighbours are exactly count-1 and addition
// neighbours count+1.
func countQuery() Query[float64] {
	return Query[float64]{
		Name:      "count",
		StateDim:  1,
		OutputDim: 1,
		Map:       func(float64) State { return State{1} },
	}
}

// sumQuery sums its records (an Arithmetic-type query, TPCH6's shape).
func sumQuery() Query[float64] {
	return Query[float64]{
		Name:      "sum",
		StateDim:  1,
		OutputDim: 1,
		Map:       func(x float64) State { return State{x} },
	}
}

// meanQuery exercises a non-identity Finalize over a two-dimensional state.
func meanQuery() Query[float64] {
	return Query[float64]{
		Name:      "mean",
		StateDim:  2,
		OutputDim: 1,
		Map:       func(x float64) State { return State{x, 1} },
		Finalize: func(s State) []float64 {
			if s[1] == 0 {
				return []float64{0}
			}
			return []float64{s[0] / s[1]}
		},
	}
}

func newTestSystem(t *testing.T, mutate func(*Config)) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SampleSize = 50
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := NewSystem(mapreduce.NewEngine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func seqData(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func uniformDomain(lo, hi float64) domainSampler[float64] {
	return func(rng *stats.RNG) float64 { return lo + rng.Float64()*(hi-lo) }
}

func TestNewSystemValidation(t *testing.T) {
	eng := mapreduce.NewEngine()
	bad := []Config{
		{SampleSize: 0, Epsilon: 1, PercentileLo: 0.01, PercentileHi: 0.99},
		{SampleSize: 10, Epsilon: 0, PercentileLo: 0.01, PercentileHi: 0.99},
		{SampleSize: 10, Epsilon: 1, PercentileLo: 0, PercentileHi: 0.99},
		{SampleSize: 10, Epsilon: 1, PercentileLo: 0.5, PercentileHi: 0.5},
		{SampleSize: 10, Epsilon: 1, PercentileLo: 0.01, PercentileHi: 1},
	}
	for i, cfg := range bad {
		if _, err := NewSystem(eng, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewSystem(nil, DefaultConfig()); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestRunValidation(t *testing.T) {
	sys := newTestSystem(t, nil)
	if _, err := Run(sys, Query[float64]{}, seqData(10), nil); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := Run(sys, countQuery(), seqData(1), nil); err == nil {
		t.Error("single-record input accepted")
	}
	if _, err := Run(sys, countQuery(), nil, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestRunCountBasics(t *testing.T) {
	sys := newTestSystem(t, nil)
	data := seqData(400)
	res, err := Run(sys, countQuery(), data, uniformDomain(0, 400))
	if err != nil {
		t.Fatal(err)
	}
	if res.VanillaOutput[0] != 400 {
		t.Errorf("VanillaOutput = %v, want 400", res.VanillaOutput)
	}
	if res.SampleSize != 50 {
		t.Errorf("SampleSize = %d, want 50", res.SampleSize)
	}
	if len(res.RemovalOutputs) != 50 || len(res.AdditionOutputs) != 50 {
		t.Fatalf("neighbour outputs = %d removals / %d additions, want 50/50",
			len(res.RemovalOutputs), len(res.AdditionOutputs))
	}
	for _, o := range res.RemovalOutputs {
		if o[0] != 399 {
			t.Fatalf("removal output = %v, want 399", o)
		}
	}
	for _, o := range res.AdditionOutputs {
		if o[0] != 401 {
			t.Fatalf("addition output = %v, want 401", o)
		}
	}
	// The greatest observed neighbour deviation is exactly 1 for a count.
	if res.EmpiricalLocalSensitivity[0] != 1 {
		t.Errorf("EmpiricalLocalSensitivity = %v, want 1", res.EmpiricalLocalSensitivity[0])
	}
	// Neighbours are {399 (x50), 401 (x50)}: MLE normal has mu=400 sigma=1,
	// so sensitivity = 2 * z(0.99) ≈ 4.653.
	if math.Abs(res.Sensitivity[0]-4.6527)/4.6527 > 0.01 {
		t.Errorf("Sensitivity = %v, want about 4.653", res.Sensitivity[0])
	}
	if res.RangeLo[0] >= res.RangeHi[0] {
		t.Errorf("range inverted: [%v, %v]", res.RangeLo[0], res.RangeHi[0])
	}
	if res.AttackSuspected || res.RemovedRecords != 0 {
		t.Errorf("fresh query flagged as attack: removed %d", res.RemovedRecords)
	}
	// f(x)=400 sits inside [lo, hi] ≈ [397.7, 402.3]: no clamping.
	if res.ClampedCoords != 0 {
		t.Errorf("ClampedCoords = %d, want 0", res.ClampedCoords)
	}
	if res.RawOutput[0] != 400 {
		t.Errorf("RawOutput = %v, want 400", res.RawOutput)
	}
	// Output is raw plus Laplace noise — at eps=0.1 it differs w.h.p.
	if res.Output[0] == res.RawOutput[0] {
		t.Log("noisy output equals raw output (possible but vanishingly unlikely)")
	}
	// The RANGE ENFORCER partitioning accounts at least one shuffle.
	if res.EngineDelta.ShuffleRounds < 1 {
		t.Errorf("no shuffle accounted: %+v", res.EngineDelta)
	}
	if sys.Enforcer().HistoryLen() != 1 {
		t.Errorf("history length = %d, want 1", sys.Enforcer().HistoryLen())
	}
}

func TestRunWithoutDomainSampler(t *testing.T) {
	sys := newTestSystem(t, nil)
	res, err := Run(sys, countQuery(), seqData(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AdditionOutputs) != 0 {
		t.Errorf("additions sampled without a domain sampler: %d", len(res.AdditionOutputs))
	}
	if len(res.RemovalOutputs) != 50 {
		t.Errorf("removals = %d, want 50", len(res.RemovalOutputs))
	}
}

// wideRecord is a 128-byte record, the size class of a TPC-H lineitem row.
type wideRecord struct {
	Key  int64
	Vals [15]float64
}

// TestRunAllocatesLessThanTwoCopies pins that a release reads S' from the
// input in place: a release over 100 000 wide records allocates less than a
// quarter of the input's bytes in total, so even one copy of S' fails it.
// Copying S' on the driver, then again into the engine, allocated about
// seven times the input; folding S' where it lies brought a release to
// about a tenth.
func TestRunAllocatesLessThanTwoCopies(t *testing.T) {
	data := make([]wideRecord, 100_000)
	for i := range data {
		data[i].Key = int64(i)
		data[i].Vals[0] = float64(i % 97)
	}
	q := Query[wideRecord]{
		Name:      "wide-sum",
		StateDim:  1,
		OutputDim: 1,
		Map:       func(r wideRecord) State { return State{r.Vals[0]} },
	}
	sys := newTestSystem(t, func(c *Config) { c.SampleSize = 1000 })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(sys, q, data, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	input := uint64(len(data)) * uint64(unsafe.Sizeof(wideRecord{}))
	limit := input / 4
	t.Logf("release allocated %d bytes for a %d-byte input", allocated, input)
	if allocated >= limit {
		t.Fatalf("release allocated %d bytes, want < %d (a quarter of the %d-byte input)", allocated, limit, input)
	}
}

func TestRunSmallDatasetExactNeighbours(t *testing.T) {
	// With |x| < n, UPA degenerates to the exact local sensitivity over all
	// removals (§IV-A).
	sys := newTestSystem(t, func(c *Config) { c.SampleSize = 1000 })
	data := seqData(20)
	res, err := Run(sys, sumQuery(), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize != 20 {
		t.Fatalf("SampleSize = %d, want 20 (=|x|)", res.SampleSize)
	}
	if len(res.RemovalOutputs) != 20 {
		t.Fatalf("removals = %d, want 20", len(res.RemovalOutputs))
	}
	// Every removal output must be sum - x_i for some unique record.
	total := 190.0
	seen := make(map[float64]bool)
	for _, o := range res.RemovalOutputs {
		removedVal := total - o[0]
		if removedVal < -1e-9 || removedVal > 19+1e-9 {
			t.Fatalf("removal output %v implies removed record %v outside data", o[0], removedVal)
		}
		key := math.Round(removedVal)
		if seen[key] {
			t.Fatalf("record %v removed twice", key)
		}
		seen[key] = true
	}
}

// TestReuseMatchesScratch is the central correctness property of Union
// Preserving Aggregation: the prefix/suffix + R(M(S')) reuse produces
// exactly the same neighbouring outputs as recomputing every neighbouring
// dataset from scratch.
func TestReuseMatchesScratch(t *testing.T) {
	f := func(raw []int16, seedRaw uint32) bool {
		if len(raw) < 4 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		data := make([]float64, len(raw))
		for i, v := range raw {
			data[i] = float64(v)
		}
		seed := uint64(seedRaw) + 1

		run := func(disableReuse bool) [][]float64 {
			cfg := DefaultConfig()
			cfg.SampleSize = 16
			cfg.Seed = seed
			cfg.DisableReuse = disableReuse
			sys, err := NewSystem(mapreduce.NewEngine(), cfg)
			if err != nil {
				return nil
			}
			res, err := Run(sys, sumQuery(), data, nil)
			if err != nil {
				return nil
			}
			return res.RemovalOutputs
		}
		a := run(false)
		b := run(true)
		if a == nil || b == nil || len(a) != len(b) {
			return false
		}
		// Fresh systems with equal seeds sample identical records, so the
		// reused and from-scratch neighbour outputs must agree
		// element-wise (up to reduce-order floating-point noise).
		for i := range a {
			if math.Abs(a[i][0]-b[i][0]) > 1e-6*math.Max(1, math.Abs(b[i][0])) {
				return false
			}
		}
		// And every output must be a genuine removal neighbour.
		var total float64
		for _, v := range data {
			total += v
		}
		for _, o := range a {
			matched := false
			for _, v := range data {
				if math.Abs(o[0]-(total-v)) < 1e-6*math.Max(1, math.Abs(total-v)) {
					matched = true
					break
				}
			}
			if !matched {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReuseIsCheaper(t *testing.T) {
	data := seqData(2000)
	runOps := func(disable bool) int64 {
		cfg := DefaultConfig()
		cfg.SampleSize = 100
		cfg.DisableReuse = disable
		eng := mapreduce.NewEngine()
		sys, err := NewSystem(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sys, sumQuery(), data, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.EngineDelta.ReduceOps
	}
	withReuse := runOps(false)
	scratch := runOps(true)
	if scratch < 10*withReuse {
		t.Fatalf("reuse saved too little: %d ops with reuse vs %d from scratch", withReuse, scratch)
	}
}

func TestAttackDetectedOnRepeatedQuery(t *testing.T) {
	sys := newTestSystem(t, nil)
	data := seqData(300)
	first, err := Run(sys, sumQuery(), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.AttackSuspected {
		t.Fatal("first release flagged as attack")
	}
	// The analyst reruns the same query on a neighbouring dataset (one
	// record removed) to isolate record 7.
	neighbour := append([]float64{}, data...)
	neighbour = append(neighbour[:7], neighbour[8:]...)
	second, err := Run(sys, sumQuery(), neighbour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !second.AttackSuspected {
		t.Fatal("repeated neighbouring query not detected")
	}
	if second.RemovedRecords < 2 {
		t.Fatalf("RemovedRecords = %d, want >= 2", second.RemovedRecords)
	}
	if second.CollidedWith != "sum" {
		t.Errorf("CollidedWith = %q, want sum", second.CollidedWith)
	}
	// The released output is computed on x'' (records removed), so the
	// analyst cannot difference the two answers down to one record.
	wantFull := 0.0
	for _, v := range neighbour {
		wantFull += v
	}
	if second.RawOutput[0] == wantFull {
		t.Error("enforcer removed records but output still equals f(x)")
	}
}

func TestClampFiresAfterEnforcerRemoval(t *testing.T) {
	// When the enforcer removes records to break an attack, the released
	// value f(x'') drifts below the neighbouring-output range of f(x) (a
	// sum of strictly positive records loses two of them) and the clamp of
	// Algorithm 2 lines 17-18 must pull it back inside.
	sys := newTestSystem(t, nil)
	data := make([]float64, 300)
	for i := range data {
		data[i] = 100 + float64(i%7) // strictly positive, low variance
	}
	if _, err := Run(sys, sumQuery(), data, nil); err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, sumQuery(), data[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AttackSuspected || res.RemovedRecords < 2 {
		t.Fatalf("attack path not taken: %+v", res)
	}
	if res.ClampedCoords == 0 {
		t.Fatalf("removal shifted the output outside the range but nothing was clamped (raw %v, range [%v, %v])",
			res.RawOutput[0], res.RangeLo[0], res.RangeHi[0])
	}
	if res.RawOutput[0] < res.RangeLo[0] || res.RawOutput[0] > res.RangeHi[0] {
		t.Fatalf("clamped output %v escaped [%v, %v]",
			res.RawOutput[0], res.RangeLo[0], res.RangeHi[0])
	}
}

func TestNoAttackAcrossDifferentData(t *testing.T) {
	sys := newTestSystem(t, nil)
	if _, err := Run(sys, sumQuery(), seqData(300), nil); err != nil {
		t.Fatal(err)
	}
	other := make([]float64, 300)
	for i := range other {
		other[i] = float64(i) * 3.7
	}
	res, err := Run(sys, sumQuery(), other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackSuspected {
		t.Fatal("unrelated dataset flagged as attack")
	}
}

func TestNonIdentityFinalize(t *testing.T) {
	sys := newTestSystem(t, nil)
	data := seqData(101) // mean = 50
	res, err := Run(sys, meanQuery(), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.VanillaOutput[0]-50) > 1e-9 {
		t.Errorf("mean = %v, want 50", res.VanillaOutput[0])
	}
	for _, o := range res.RemovalOutputs {
		// Removing x_i shifts the mean to (5050-x_i)/100 in [50-0.5, 50+0.505].
		if o[0] < 49.4 || o[0] > 50.6 {
			t.Fatalf("removal mean %v implausible", o[0])
		}
	}
	if len(res.Output) != 1 {
		t.Fatalf("output dim = %d, want 1", len(res.Output))
	}
}

func TestRunDeterministicAcrossSystems(t *testing.T) {
	// Fresh systems with the same seed do not share the global release
	// counter, so exact equality is not guaranteed across process history.
	// What must hold: the vanilla output and the history-free enforcement
	// path are deterministic functions of the data.
	data := seqData(256)
	a, err := Run(newTestSystem(t, nil), countQuery(), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(newTestSystem(t, nil), countQuery(), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.VanillaOutput[0] != b.VanillaOutput[0] {
		t.Errorf("vanilla outputs differ: %v vs %v", a.VanillaOutput, b.VanillaOutput)
	}
	if a.RawOutput[0] != b.RawOutput[0] {
		t.Errorf("raw outputs differ: %v vs %v", a.RawOutput, b.RawOutput)
	}
	if a.Sensitivity[0] != b.Sensitivity[0] {
		t.Errorf("sensitivities differ: %v vs %v", a.Sensitivity, b.Sensitivity)
	}
}

func TestEmpiricalRangeAblation(t *testing.T) {
	// For a count query the neighbouring outputs are the three-point set
	// {c-1, c, c+1}; the empirical 1-99 range nails [c-1, c+1] while the
	// normal fit widens it (sigma-scaled percentiles).
	data := seqData(400)
	run := func(empirical bool) *Result {
		sys := newTestSystem(t, func(c *Config) { c.EmpiricalRange = empirical })
		res, err := Run(sys, countQuery(), data, uniformDomain(0, 400))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mle := run(false)
	emp := run(true)
	if emp.RangeLo[0] != 399 || emp.RangeHi[0] != 401 {
		t.Fatalf("empirical range = [%v, %v], want [399, 401]",
			emp.RangeLo[0], emp.RangeHi[0])
	}
	if emp.Sensitivity[0] != 2 {
		t.Fatalf("empirical sensitivity = %v, want 2", emp.Sensitivity[0])
	}
	if mle.Sensitivity[0] <= emp.Sensitivity[0] {
		t.Fatalf("MLE sensitivity %v not wider than empirical %v on a non-normal census",
			mle.Sensitivity[0], emp.Sensitivity[0])
	}
}

func TestDisableClampAblation(t *testing.T) {
	sys := newTestSystem(t, func(c *Config) { c.DisableClamp = true })
	res, err := Run(sys, sumQuery(), seqData(200), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClampedCoords != 0 {
		t.Errorf("clamping ran despite DisableClamp: %d", res.ClampedCoords)
	}
}

func TestRunVanilla(t *testing.T) {
	eng := mapreduce.NewEngine()
	out, err := RunVanilla(eng, sumQuery(), seqData(100))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 4950 {
		t.Errorf("vanilla sum = %v, want 4950", out[0])
	}
	if _, err := RunVanilla(eng, sumQuery(), nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := RunVanilla(eng, Query[float64]{}, seqData(10)); err == nil {
		t.Error("invalid query accepted")
	}
	// Finalize applies.
	mean, err := RunVanilla(eng, meanQuery(), seqData(11))
	if err != nil {
		t.Fatal(err)
	}
	if mean[0] != 5 {
		t.Errorf("vanilla mean = %v, want 5", mean[0])
	}
}

// TestRunVanillaReadsInPlace pins that the vanilla baseline reads its input
// where it lies, as UPA reads S′: evaluating 100 000 wide records allocates
// less than one copy of them.
func TestRunVanillaReadsInPlace(t *testing.T) {
	data := make([]wideRecord, 100_000)
	for i := range data {
		data[i].Vals[0] = float64(i % 97)
	}
	q := Query[wideRecord]{
		Name:      "wide-sum",
		StateDim:  1,
		OutputDim: 1,
		Map:       func(r wideRecord) State { return State{r.Vals[0]} },
	}
	eng := mapreduce.NewEngine()
	defer eng.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunVanilla(eng, q, data); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	limit := uint64(len(data)) * uint64(unsafe.Sizeof(wideRecord{}))
	t.Logf("vanilla run allocated %d bytes for a %d-byte input", allocated, limit)
	if allocated >= limit {
		t.Fatalf("vanilla run allocated %d bytes, want < %d (one copy of the input)", allocated, limit)
	}
}

func TestPhaseTimingsTotal(t *testing.T) {
	sys := newTestSystem(t, nil)
	res, err := Run(sys, countQuery(), seqData(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.Total() <= 0 {
		t.Errorf("phase total = %v, want positive", res.Phases.Total())
	}
}

// TestCacheReuseCounted pins Figure 4(b)'s counters at n = 50: R(M(S')) is
// computed once (one miss) and reused by each of the 50 removal neighbours
// (50 hits), whether or not additions or group neighbours ride along. The
// scratch ablation reuses nothing, and when every record is sampled there is
// no S' to compute or reuse.
func TestCacheReuseCounted(t *testing.T) {
	cases := []struct {
		name         string
		records      int
		mutate       func(*Config)
		domain       domainSampler[float64]
		hits, misses int64
	}{
		{name: "plain", records: 500, hits: 50, misses: 1},
		{name: "additions", records: 500, domain: uniformDomain(0, 500), hits: 50, misses: 1},
		{name: "group3", records: 500, mutate: func(c *Config) { c.GroupSize = 3 }, hits: 50, misses: 1},
		{name: "disable-reuse", records: 500, mutate: func(c *Config) { c.DisableReuse = true }, hits: 0, misses: 1},
		{name: "all-sampled-40", records: 40, hits: 0, misses: 0},
		{name: "all-sampled-50", records: 50, hits: 0, misses: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := newTestSystem(t, tc.mutate)
			res, err := Run(sys, sumQuery(), seqData(tc.records), tc.domain)
			if err != nil {
				t.Fatal(err)
			}
			d := res.EngineDelta
			if d.CacheHits != tc.hits || d.CacheMisses != tc.misses {
				t.Errorf("cache = %d hits / %d misses, want %d/%d", d.CacheHits, d.CacheMisses, tc.hits, tc.misses)
			}
		})
	}
}

// TestSharedEngineCacheIsolation is the regression test for a cache-key
// collision: two systems sharing one engine must never alias each other's
// cached R(M(S')) — the stale entry silently corrupts every neighbouring
// output of the second system.
func TestSharedEngineCacheIsolation(t *testing.T) {
	eng := mapreduce.NewEngine()
	data := seqData(500)
	var total float64
	for _, v := range data {
		total += v
	}
	newSys := func(seed uint64) *System {
		cfg := DefaultConfig()
		cfg.SampleSize = 50
		cfg.Seed = seed
		sys, err := NewSystem(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// Two systems, same engine, different seeds: different sample sets,
	// hence different R(M(S')) under the same release number.
	for _, seed := range []uint64{1, 2, 3} {
		res, err := Run(newSys(seed), sumQuery(), data, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.RemovalOutputs {
			removed := total - o[0]
			if removed < -1e-6 || removed > 499+1e-6 {
				t.Fatalf("seed %d: removal output %v implies removed record %v outside data (stale cache?)",
					seed, o[0], removed)
			}
		}
	}
}

// TestReleasesLeaveNoCacheEntries pins the cache accounting across many
// releases on one shared engine, including one that fails at fit after
// neighbour-join reused R(M(S′)): each of the 21 releases computes R(M(S′))
// once and reuses it 50 times, and nothing else touches the counters.
func TestReleasesLeaveNoCacheEntries(t *testing.T) {
	eng := mapreduce.NewEngine()
	defer eng.Close()
	cfg := DefaultConfig()
	cfg.SampleSize = 50
	sys, err := NewSystem(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := seqData(500)
	for i := 0; i < 20; i++ {
		if _, err := Run(sys, sumQuery(), data, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Every neighbouring output of this query is one coordinate wider than
	// OutputDim, so the fit stage fails after neighbour-join.
	wide := sumQuery()
	wide.Finalize = func(s State) []float64 { return []float64{s[0], s[0]} }
	if _, err := Run(sys, wide, data, nil); err == nil {
		t.Fatal("release with mis-sized outputs succeeded")
	}
	if m := eng.Metrics(); m.CacheMisses != 21 || m.CacheHits != 1050 {
		t.Fatalf("cache after 21 releases = %d hits / %d misses, want 1050/21", m.CacheHits, m.CacheMisses)
	}
}

func TestSensitivityCoversNeighbours(t *testing.T) {
	// The inferred range must cover the bulk of the sampled neighbouring
	// outputs (the 1st..99th percentile of their fitted distribution).
	sys := newTestSystem(t, func(c *Config) { c.SampleSize = 200 })
	rng := stats.NewRNG(77)
	data := make([]float64, 2000)
	for i := range data {
		data[i] = rng.NormFloat64() * 10
	}
	res, err := Run(sys, sumQuery(), data, func(r *stats.RNG) float64 { return r.NormFloat64() * 10 })
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]float64{}, res.RemovalOutputs...), res.AdditionOutputs...)
	col := make([]float64, len(all))
	for i, o := range all {
		col[i] = o[0]
	}
	cov := stats.CoverageFraction(col, res.RangeLo[0], res.RangeHi[0])
	if cov < 0.95 {
		t.Fatalf("inferred range covers only %.1f%% of sampled neighbours", cov*100)
	}
}

// TestSpansIndependentOfWorkerCount: every release stage is one task, so a
// release's outputs, span counters and engine counters other than the task
// counts are the same on 1, 2 or 8 workers; in particular neighbour-deltas
// runs once and charges one combine per interior complement.
func TestSpansIndependentOfWorkerCount(t *testing.T) {
	const n = 50
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, tc := range []struct {
		q      Query[float64]
		domain domainSampler[float64]
	}{
		{countQuery(), nil},
		{sumQuery(), uniformDomain(0, 500)},
	} {
		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			cfg := DefaultConfig()
			cfg.SampleSize = n
			sys, err := NewSystem(mapreduce.NewEngine(mapreduce.WithWorkers(workers)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sys, tc.q, seqData(500), tc.domain)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range res.Spans {
				if s.Stage == StageNeighbourDeltas && (s.Attempts != 1 || s.ReduceOps != n-2) {
					t.Errorf("%s, %d workers: neighbour-deltas %d attempts / %d reduce ops, want 1/%d",
						tc.q.Name, workers, s.Attempts, s.ReduceOps, n-2)
				}
			}
			if ref == nil {
				ref = res
				continue
			}
			for _, f := range []struct {
				name     string
				got, ref []float64
			}{
				{"Output", res.Output, ref.Output},
				{"RawOutput", res.RawOutput, ref.RawOutput},
				{"Sensitivity", res.Sensitivity, ref.Sensitivity},
				{"RangeLo", res.RangeLo, ref.RangeLo},
				{"RangeHi", res.RangeHi, ref.RangeHi},
			} {
				if !slices.Equal(bits(f.got), bits(f.ref)) {
					t.Errorf("%s, %d workers: %s = %v, want %v as on 1 worker", tc.q.Name, workers, f.name, f.got, f.ref)
				}
			}
			if res.ClampedCoords != ref.ClampedCoords {
				t.Errorf("%s, %d workers: ClampedCoords = %d, want %d", tc.q.Name, workers, res.ClampedCoords, ref.ClampedCoords)
			}
			// The engine jobs the stages start still split their input
			// into eng.Workers() partitions (mapThrough, splitSPrime), so
			// their task counts follow the worker count; every other
			// engine counter must not.
			got, want := res.EngineDelta, ref.EngineDelta
			got.TaskAttempts, got.TasksRun, want.TaskAttempts, want.TasksRun = 0, 0, 0, 0
			if got != want {
				t.Errorf("%s, %d workers: EngineDelta = %+v, want %+v", tc.q.Name, workers, res.EngineDelta, ref.EngineDelta)
			}
			if len(res.Spans) != len(ref.Spans) {
				t.Fatalf("%s, %d workers: %d spans, want %d", tc.q.Name, workers, len(res.Spans), len(ref.Spans))
			}
			for i, s := range res.Spans {
				r := ref.Spans[i]
				if s.Stage != r.Stage || s.Attempts != r.Attempts || s.ReduceOps != r.ReduceOps || s.CacheHits != r.CacheHits {
					t.Errorf("%s, %d workers: span %s = %d attempts / %d reduce ops / %d cache hits, want %s = %d/%d/%d",
						tc.q.Name, workers, s.Stage, s.Attempts, s.ReduceOps, s.CacheHits, r.Stage, r.Attempts, r.ReduceOps, r.CacheHits)
				}
			}
		}
	}
}

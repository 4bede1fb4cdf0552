package queries

import (
	"errors"
	"math"
	"testing"

	"upa/internal/core"
	"upa/internal/flex"
	"upa/internal/lifesci"
	"upa/internal/mapreduce"
	"upa/internal/stats"
	"upa/internal/tpch"
)

// testWorkload is small enough for brute force in every test.
func testWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := NewWorkload(
		tpch.Config{Lineitems: 2000, Skew: 0.3, Seed: 3},
		lifesci.Config{Records: 1500, Dims: 3, Clusters: 2, OutlierFrac: 0.01, Seed: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testSystem(t *testing.T, eng *mapreduce.Engine) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SampleSize = 100
	sys, err := core.NewSystem(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAllNineQueriesPresent(t *testing.T) {
	w := testWorkload(t)
	all := w.All()
	if len(all) != 9 {
		t.Fatalf("All() returned %d queries, want 9", len(all))
	}
	wantNames := map[string]Kind{
		"TPCH1": KindCount, "TPCH4": KindCount, "TPCH13": KindCount,
		"TPCH16": KindCount, "TPCH21": KindCount,
		"KMeans": KindML, "Linear Regression": KindML,
		"TPCH6": KindArithmetic, "TPCH11": KindArithmetic,
	}
	for _, r := range all {
		kind, ok := wantNames[r.Name()]
		if !ok {
			t.Errorf("unexpected query %q", r.Name())
			continue
		}
		if r.Kind() != kind {
			t.Errorf("%s kind = %v, want %v", r.Name(), r.Kind(), kind)
		}
		delete(wantNames, r.Name())
	}
	if len(wantNames) != 0 {
		t.Errorf("missing queries: %v", wantNames)
	}
}

func TestSupportMatrixMatchesTableII(t *testing.T) {
	w := testWorkload(t)
	flexSupported := 0
	for _, r := range w.All() {
		plan := r.FLEXPlan()
		if plan.Supported() != r.FLEXSupported() {
			t.Errorf("%s: plan support %v != runner support %v", r.Name(), plan.Supported(), r.FLEXSupported())
		}
		if r.FLEXSupported() {
			flexSupported++
			if _, err := plan.LocalSensitivity(); err != nil {
				t.Errorf("%s: supported plan failed: %v", r.Name(), err)
			}
		} else if _, err := plan.LocalSensitivity(); !errors.Is(err, flex.ErrUnsupported) {
			t.Errorf("%s: unsupported plan error = %v, want ErrUnsupported", r.Name(), err)
		}
	}
	if flexSupported != 5 {
		t.Errorf("FLEX supports %d queries, want 5 (Table II)", flexSupported)
	}
}

func TestNewWorkloadFromDB(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lineitems: 1000, Skew: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkloadFromDB(db)
	if err != nil {
		t.Fatal(err)
	}
	if w.DB != db {
		t.Fatal("workload does not wrap the supplied database")
	}
	// The TPC-H runners work; results match a full workload on the same DB.
	eng := mapreduce.NewEngine()
	out, err := w.TPCH1().RunVanilla(eng)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewWorkload(
		tpch.Config{Lineitems: 1000, Skew: 0.2, Seed: 9},
		lifesci.Config{Records: 100, Dims: 2, Clusters: 2, Seed: 9},
	)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := full.TPCH1().RunVanilla(eng)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != ref[0] {
		t.Fatalf("FromDB TPCH1 = %v, full workload = %v", out[0], ref[0])
	}
	if _, err := NewWorkloadFromDB(nil); err == nil {
		t.Fatal("nil database accepted")
	}
}

func TestGroundTruthWithAdditions(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	for _, name := range []string{"TPCH1", "TPCH6", "KMeans"} {
		r, err := w.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := r.GroundTruth(eng, 50, stats.NewRNG(4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(truth.AdditionOutputs) != 50 {
			t.Errorf("%s: %d addition outputs, want 50", name, len(truth.AdditionOutputs))
		}
		if len(truth.RemovalOutputs) != r.DatasetSize() {
			t.Errorf("%s: %d removal outputs, want %d", name, len(truth.RemovalOutputs), r.DatasetSize())
		}
	}
}

func TestByName(t *testing.T) {
	w := testWorkload(t)
	r, err := w.ByName("TPCH6")
	if err != nil || r.Name() != "TPCH6" {
		t.Fatalf("ByName(TPCH6) = %v, %v", r, err)
	}
	if _, err := w.ByName("TPCH99"); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestVanillaOutputsSane(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	for _, r := range w.All() {
		out, err := r.RunVanilla(eng)
		if err != nil {
			t.Fatalf("%s: RunVanilla: %v", r.Name(), err)
		}
		if len(out) == 0 {
			t.Fatalf("%s: empty output", r.Name())
		}
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: output[%d] = %v", r.Name(), i, v)
			}
		}
	}
}

func TestTPCH1CountsCutoff(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	out, err := w.TPCH1().RunVanilla(eng)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, l := range w.DB.Lineitems {
		if l.ShipDate <= tpch1Cutoff {
			want++
		}
	}
	if out[0] != want {
		t.Fatalf("TPCH1 = %v, want %v", out[0], want)
	}
	if want == 0 || want == float64(len(w.DB.Lineitems)) {
		t.Fatalf("degenerate cutoff selectivity: %v of %d", want, len(w.DB.Lineitems))
	}
}

func TestTPCH6MatchesDirectSum(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	out, err := w.TPCH6().RunVanilla(eng)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, l := range w.DB.Lineitems {
		if l.ShipDate >= tpch6YearLo && l.ShipDate < tpch6YearHi &&
			l.Discount >= tpch6DiscountLo-1e-9 && l.Discount <= tpch6DiscountHi+1e-9 &&
			l.Quantity < tpch6QtyMax {
			want += l.ExtendedPrice * l.Discount
		}
	}
	if math.Abs(out[0]-want) > 1e-6*math.Max(1, want) {
		t.Fatalf("TPCH6 = %v, want %v", out[0], want)
	}
	if want <= 0 {
		t.Fatal("TPCH6 filters selected nothing; generator domains drifted")
	}
}

func TestTPCH4CountsJoinedPairs(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	out, err := w.TPCH4().RunVanilla(eng)
	if err != nil {
		t.Fatal(err)
	}
	late := make(map[int]float64)
	for _, l := range w.DB.Lineitems {
		if l.CommitDate < l.ReceiptDate {
			late[l.OrderKey]++
		}
	}
	var want float64
	for _, o := range w.DB.Orders {
		if o.OrderDate >= tpch4WindowLo && o.OrderDate < tpch4WindowHi {
			want += late[o.OrderKey]
		}
	}
	if out[0] != want {
		t.Fatalf("TPCH4 = %v, want %v", out[0], want)
	}
}

func TestGroundTruthSensitivities(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()

	// TPCH1 and TPCH16: one record influences the count by at most 1.
	for _, name := range []string{"TPCH1", "TPCH16"} {
		r, err := w.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := r.GroundTruth(eng, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if truth.LocalSensitivity[0] > 1 {
			t.Errorf("%s: ground truth sensitivity %v > 1", name, truth.LocalSensitivity[0])
		}
	}

	// TPCH4: influence equals an order's late-lineitem fan-out, bounded by
	// the max orderkey frequency but usually far below FLEX's product.
	truth, err := w.TPCH4().GroundTruth(eng, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	flexSens, err := w.TPCH4().FLEXPlan().LocalSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if truth.LocalSensitivity[0] > flexSens {
		t.Errorf("TPCH4: FLEX (%v) not an upper bound of truth (%v)", flexSens, truth.LocalSensitivity[0])
	}
}

func TestFLEXOverestimatesMultiJoinQueries(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	for _, name := range []string{"TPCH16", "TPCH21"} {
		r, err := w.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := r.GroundTruth(eng, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flexSens, err := r.FLEXPlan().LocalSensitivity()
		if err != nil {
			t.Fatal(err)
		}
		if truth.LocalSensitivity[0] <= 0 {
			t.Logf("%s: degenerate truth sensitivity %v", name, truth.LocalSensitivity[0])
			continue
		}
		if ratio := flexSens / truth.LocalSensitivity[0]; ratio < 100 {
			t.Errorf("%s: FLEX/truth = %v, want >= 100 (orders of magnitude, Fig 2a)", name, ratio)
		}
	}
}

func TestUPAEndToEndOnAllQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end UPA over all nine queries is slow")
	}
	w := testWorkload(t)
	for _, r := range w.All() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			eng := mapreduce.NewEngine()
			sys := testSystem(t, eng)
			res, err := r.RunUPA(sys)
			if err != nil {
				t.Fatalf("RunUPA: %v", err)
			}
			if len(res.Output) == 0 {
				t.Fatal("empty release")
			}
			for d, s := range res.Sensitivity {
				if s < 0 || math.IsNaN(s) {
					t.Fatalf("sensitivity[%d] = %v", d, s)
				}
			}
			if res.SampleSize != 100 {
				t.Errorf("SampleSize = %d, want 100", res.SampleSize)
			}
			truth, err := r.GroundTruth(eng, 100, stats.NewRNG(1))
			if err != nil {
				t.Fatalf("GroundTruth: %v", err)
			}
			// UPA's inferred sensitivity should be the same order of
			// magnitude as the truth whenever the truth is non-degenerate.
			for d := range truth.LocalSensitivity {
				tr := truth.LocalSensitivity[d]
				if tr <= 0 {
					continue
				}
				ratio := res.Sensitivity[d] / tr
				if ratio > 1000 || ratio < 1e-3 {
					t.Errorf("coordinate %d: UPA sensitivity %v vs truth %v (ratio %v)",
						d, res.Sensitivity[d], tr, ratio)
				}
			}
		})
	}
}

func TestJoinQueriesShuffleTwiceUnderUPA(t *testing.T) {
	w := testWorkload(t)

	vanillaEng := mapreduce.NewEngine()
	if _, err := w.TPCH4().RunVanilla(vanillaEng); err != nil {
		t.Fatal(err)
	}
	vanillaShuffles := vanillaEng.Metrics().ShuffleRounds

	upaEng := mapreduce.NewEngine()
	sys := testSystem(t, upaEng)
	if _, err := w.TPCH4().RunUPA(sys); err != nil {
		t.Fatal(err)
	}
	upaShuffles := upaEng.Metrics().ShuffleRounds

	if upaShuffles < 2*vanillaShuffles {
		t.Errorf("UPA shuffles = %d, vanilla = %d; want at least double (§V-C)",
			upaShuffles, vanillaShuffles)
	}
}

// TestUPAAccountsOneRoundPerJoin pins what a UPA release adds to the
// engine counters over a vanilla run of the same query: the RANGE
// ENFORCER's repartition of the whole dataset, plus joinDP's second round
// of 2n differing tuples for every Join (§V-C), and nothing else.
func TestUPAAccountsOneRoundPerJoin(t *testing.T) {
	w := testWorkload(t)
	joins := map[string]int{"TPCH4": 1, "TPCH13": 1, "TPCH11": 1, "TPCH16": 2, "TPCH21": 5}
	for _, r := range w.All() {
		vanillaEng := mapreduce.NewEngine()
		if _, err := r.RunVanilla(vanillaEng); err != nil {
			t.Fatalf("%s: RunVanilla: %v", r.Name(), err)
		}
		upaEng := mapreduce.NewEngine()
		sys := testSystem(t, upaEng)
		if _, err := r.RunUPA(sys); err != nil {
			t.Fatalf("%s: RunUPA: %v", r.Name(), err)
		}
		vanilla, upa := vanillaEng.Metrics(), upaEng.Metrics()
		j := int64(joins[r.Name()])
		n := int64(min(sys.Config().SampleSize, r.DatasetSize()))
		if got, want := upa.ShuffleRounds-vanilla.ShuffleRounds, j+1; got != want {
			t.Errorf("%s: UPA adds %d shuffle rounds, want %d (one per Join plus the enforcer's)",
				r.Name(), got, want)
		}
		if got, want := upa.RecordsShuffled-vanilla.RecordsShuffled, j*2*n+int64(r.DatasetSize()); got != want {
			t.Errorf("%s: UPA adds %d records shuffled, want %d (2n = %d per Join plus the dataset)",
				r.Name(), got, want, 2*n)
		}
	}
}

func TestKMeansMovesTowardData(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	out, err := w.KMeans().RunVanilla(eng)
	if err != nil {
		t.Fatal(err)
	}
	d := w.LS.Config.Dims
	k := len(w.kmInit)
	if len(out) != k*d {
		t.Fatalf("KMeans output dim = %d, want %d", len(out), k*d)
	}
	// One Lloyd step from a perturbed init should (weakly) reduce the total
	// distance to the planted centres for at least one cluster.
	improved := false
	for c := 0; c < k; c++ {
		before := dist2(w.kmInit[c], w.LS.TrueCenters[c])
		after := dist2(out[c*d:(c+1)*d], w.LS.TrueCenters[c])
		if after < before {
			improved = true
		}
	}
	if !improved {
		t.Error("no cluster centre moved toward the planted centres")
	}
}

func TestLinearRegressionStepReducesLoss(t *testing.T) {
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	out, err := w.LinearRegression().RunVanilla(eng)
	if err != nil {
		t.Fatal(err)
	}
	d := w.LS.Config.Dims
	if len(out) != d+1 {
		t.Fatalf("LR output dim = %d, want %d", len(out), d+1)
	}
	loss := func(wts []float64) float64 {
		var sum float64
		for _, p := range w.LS.Points {
			pred := wts[d]
			for j, x := range p.Features {
				pred += wts[j] * x
			}
			r := pred - p.Target
			sum += r * r
		}
		return sum / float64(len(w.LS.Points))
	}
	if after, before := loss(out), loss(w.lrInit); after >= before {
		t.Errorf("gradient step increased loss: %v -> %v", before, after)
	}
}

func TestMLOutputsDifferOnNeighbouringData(t *testing.T) {
	// The paper's motivation for LR (§III): neighbouring datasets give
	// different model outputs, so iDP is needed.
	w := testWorkload(t)
	eng := mapreduce.NewEngine()
	truth, err := w.LinearRegression().GroundTruth(eng, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxSens := 0.0
	for _, s := range truth.LocalSensitivity {
		maxSens = math.Max(maxSens, s)
	}
	if maxSens <= 0 {
		t.Fatal("LR output identical on all neighbouring datasets")
	}
}

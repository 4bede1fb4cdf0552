package queries

import (
	"testing"

	"upa/internal/core"
	"upa/internal/lifesci"
	"upa/internal/mapreduce"
	"upa/internal/tpch"
)

// paperReleased keeps the benchmarked release live.
var paperReleased *core.Result

// BenchmarkPaperRelease times one RunUPA per iteration for each of the nine
// paper queries, on a fresh core.System over one engine per query: 100 000
// lineitems, 20 000 life-science records, n = 1 000 and ε = 0.1. Building the
// system is outside the timer, so time and allocations are the release's
// own. Run with -benchmem: allocs/op repeats closely from run to run, which
// makes it the steadier number to compare.
func BenchmarkPaperRelease(b *testing.B) {
	w, err := NewWorkload(
		tpch.Config{Lineitems: 100000, Skew: 0.2, Seed: 1},
		lifesci.Config{Records: 20000, Dims: 4, Clusters: 3, OutlierFrac: 0.01, Seed: 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range w.All() {
		b.Run(r.Name(), func(b *testing.B) {
			eng := mapreduce.NewEngine()
			defer eng.Close()
			cfg := core.DefaultConfig()
			cfg.SampleSize = 1000
			cfg.Epsilon = 0.1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := core.NewSystem(eng, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := r.RunUPA(sys)
				if err != nil {
					b.Fatal(err)
				}
				paperReleased = res
			}
		})
	}
}

package main

import (
	"math"
	"time"

	"upa/internal/stats"
)

// percentile is the p-th empirical quantile of xs (linear interpolation
// between order statistics, as everywhere in this repository); 0 for an empty
// sample.
func percentile(xs []float64, p float64) float64 {
	q, err := stats.EmpiricalQuantile(xs, p)
	if err != nil {
		return 0
	}
	return q
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mix derives a 64-bit value from a seed and a path of labels through the
// repository's splittable RNG: request i of a workload is
// mix(seed, workload, i), a pure function of its arguments.
func mix(seed uint64, labels ...uint64) uint64 {
	r := stats.NewRNG(seed)
	for _, l := range labels {
		r = r.Split(l)
	}
	return r.Uint64()
}

// relErr is the accuracy a release delivers: its relative RMSE against the
// exact answer, the measure of the paper's Fig. 2(a) (|released − exact| /
// |exact| for a count). Callers have checked the lengths.
func relErr(released, exact []float64) float64 {
	e, _ := stats.RelativeRMSE(released, exact)
	return e
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(xs) > 0
}

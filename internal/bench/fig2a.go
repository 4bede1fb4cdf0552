package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"upa/internal/flex"
	"upa/internal/mapreduce"
	"upa/internal/stats"
)

// SensitivityRow is one bar group of Figure 2(a): the RMSE between the
// locally inferred sensitivities (UPA's sampled estimate; FLEX's static
// estimate) and the brute-force ground truth, across Trials independently
// generated workloads, normalized by the mean ground-truth magnitude.
type SensitivityRow struct {
	Query string
	// UPARelRMSE and FLEXRelRMSE are relative RMSEs (fractions of the mean
	// ground-truth sensitivity; the paper's "3.81%" is 0.0381 here).
	UPARelRMSE  float64
	FLEXRelRMSE float64
	// FLEXSupported is false for the four queries FLEX cannot analyze.
	FLEXSupported bool
	// MeanTruth, MeanUPA and MeanFLEX are the trial-mean sensitivities, for
	// inspection.
	MeanTruth, MeanUPA, MeanFLEX float64
}

// Fig2a regenerates Figure 2(a).
func Fig2a(cfg Config) ([]SensitivityRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	type acc struct {
		upa, truth, flexSens []float64
		flexSupported        bool
	}
	byQuery := make(map[string]*acc, 9)
	for _, name := range QueryNames() {
		byQuery[name] = &acc{}
	}

	for trial := 0; trial < cfg.Trials; trial++ {
		w, err := cfg.Workload(trial)
		if err != nil {
			return nil, err
		}
		for _, r := range w.All() {
			a := byQuery[r.Name()]
			eng := mapreduce.NewEngine()

			truth, err := r.GroundTruth(eng, cfg.Additions, stats.NewRNG(cfg.Seed+uint64(trial)))
			if err != nil {
				return nil, fmt.Errorf("bench: truth for %s: %w", r.Name(), err)
			}
			sys, err := cfg.newSystem(eng, cfg.SampleSize)
			if err != nil {
				return nil, err
			}
			res, err := r.RunUPA(sys)
			if err != nil {
				return nil, fmt.Errorf("bench: UPA on %s: %w", r.Name(), err)
			}
			// Compare per output coordinate.
			for d := range truth.LocalSensitivity {
				a.truth = append(a.truth, truth.LocalSensitivity[d])
				a.upa = append(a.upa, res.EmpiricalLocalSensitivity[d])
			}

			if fs, err := r.FLEXPlan().LocalSensitivity(); err == nil {
				a.flexSupported = true
				// FLEX emits one scalar bound; it applies to the count
				// output (coordinate 0).
				a.flexSens = append(a.flexSens, fs)
			} else if !errors.Is(err, flex.ErrUnsupported) {
				return nil, err
			}
		}
	}

	rows := make([]SensitivityRow, 0, 9)
	for _, name := range QueryNames() {
		a := byQuery[name]
		row := SensitivityRow{Query: name, FLEXSupported: a.flexSupported}
		rel, err := stats.RelativeRMSE(a.upa, a.truth)
		if err != nil {
			return nil, err
		}
		row.UPARelRMSE = rel
		row.MeanTruth = mean(a.truth)
		row.MeanUPA = mean(a.upa)
		if a.flexSupported {
			// FLEX's scalar bound is compared against the coordinate-0
			// ground truth of each trial.
			truth0 := make([]float64, 0, len(a.flexSens))
			stride := len(a.truth) / cfg.Trials
			for trial := 0; trial < cfg.Trials; trial++ {
				truth0 = append(truth0, a.truth[trial*stride])
			}
			rel, err := stats.RelativeRMSE(a.flexSens, truth0)
			if err != nil {
				return nil, err
			}
			row.FLEXRelRMSE = rel
			row.MeanFLEX = mean(a.flexSens)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig2a renders the RMSE comparison as aligned text (log-scale
// magnitudes, like the paper's figure).
func RenderFig2a(rows []SensitivityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2(a): relative RMSE of inferred local sensitivity vs ground truth\n")
	fmt.Fprintf(&b, "%-18s %14s %14s %12s %14s %14s\n",
		"Query", "UPA RMSE", "FLEX RMSE", "log10(F/U)", "truth sens", "FLEX sens")
	var upaSum float64
	for _, r := range rows {
		flexCol, ratioCol := "unsupported", "-"
		if r.FLEXSupported {
			flexCol = fmt.Sprintf("%.4g", r.FLEXRelRMSE)
			if r.UPARelRMSE > 0 && r.FLEXRelRMSE > 0 {
				ratioCol = fmt.Sprintf("%.1f", math.Log10(r.FLEXRelRMSE/r.UPARelRMSE))
			} else if r.FLEXRelRMSE > 0 {
				ratioCol = "inf"
			}
		}
		fmt.Fprintf(&b, "%-18s %14.4g %14s %12s %14.4g %14.4g\n",
			r.Query, r.UPARelRMSE, flexCol, ratioCol, r.MeanTruth, r.MeanFLEX)
		upaSum += r.UPARelRMSE
	}
	fmt.Fprintf(&b, "UPA mean relative RMSE over all queries: %.2f%%\n", 100*upaSum/float64(len(rows)))
	return b.String()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

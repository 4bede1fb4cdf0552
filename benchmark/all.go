package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// roundsMetric is one end-to-end metric of one workload over the rounds of a
// full run: the per-round values are kept, their median is what is compared.
type roundsMetric struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Rounds []float64 `json:"rounds"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Correct   bool                    `json:"correct"`
	EndToEnd  map[string]roundsMetric `json:"endToEnd"`
	PerLayer  map[string]metric       `json:"perLayer"`
}

// resultFile is what -workload all writes and -compare reads.
type resultFile struct {
	Header    runHeader                  `json:"header"`
	Rounds    int                        `json:"rounds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runAll is the one command that prints every metric: each workload runs
// cfg.rounds times untraced, rounds interleaved across workloads so that
// machine drift hits all alike, then once traced. End-to-end numbers come
// from the untraced runs only.
func runAll(ctx context.Context, cfg *config, stdout io.Writer) error {
	file := resultFile{Header: cfg.header(), Rounds: cfg.rounds, Workloads: make(map[string]*workloadResult)}
	for _, def := range catalogue {
		file.Workloads[def.name] = &workloadResult{Correct: true, EndToEnd: make(map[string]roundsMetric)}
	}
	one := *cfg
	for round := 1; round <= cfg.rounds; round++ {
		for _, def := range catalogue {
			fmt.Fprintf(cfg.log, "--- round %d of %d: %s\n", round, cfg.rounds, def.name)
			one.workload, one.trace = def.name, false
			res, err := runWorkload(ctx, &one, def)
			if err != nil {
				return fmt.Errorf("%s round %d: %w", def.name, round, err)
			}
			w := file.Workloads[def.name]
			w.Attempted += res.Attempted
			w.Failed += res.Failed
			w.Correct = w.Correct && res.Correct
			for name, m := range res.Metrics {
				rm := w.EndToEnd[name]
				rm.Unit = m.Unit
				rm.Rounds = append(rm.Rounds, m.Value)
				rm.Median = median(rm.Rounds)
				w.EndToEnd[name] = rm
			}
		}
	}
	for _, def := range catalogue {
		fmt.Fprintf(cfg.log, "--- traced: %s\n", def.name)
		one.workload, one.trace = def.name, true
		res, err := runWorkload(ctx, &one, def)
		if err != nil {
			return fmt.Errorf("%s traced: %w", def.name, err)
		}
		w := file.Workloads[def.name]
		w.Correct = w.Correct && res.Correct
		w.PerLayer = res.Metrics
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	correct := true
	for _, def := range catalogue {
		w := file.Workloads[def.name]
		correct = correct && w.Correct
		fmt.Fprintf(tw, "%s\tcorrect=%v\tattempted=%d\tfailed_ops_ratio=%g\n", def.name, w.Correct, w.Attempted, float64(w.Failed)/float64(w.Attempted))
		for _, m := range cfg.spec.EndToEnd {
			fmt.Fprintf(tw, "  %s\t%.6g %s\t(rounds %.6g)\n", m.Name, w.EndToEnd[m.Name].Median, m.Unit, w.EndToEnd[m.Name].Rounds)
		}
		for _, m := range cfg.spec.PerLayer {
			fmt.Fprintf(tw, "  %s\t%.6g %s\n", m.Name, w.PerLayer[m.Name].Value, m.Unit)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := cfg.outDir + "/results.json"
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "results in %s\n", path)
	if !correct {
		return fmt.Errorf("a correctness check failed; see above")
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric with both
// medians, their ratio (base: old), the bound and a verdict, and fails if any
// row is worse.
func compareFiles(spec *benchSpec, oldPath, newPath string, stdout io.Writer) error {
	var files [2]resultFile
	for i, path := range []string{oldPath, newPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\tverdict")
	worse := 0
	for _, w := range spec.Workloads {
		o, n := files[0].Workloads[w.Name], files[1].Workloads[w.Name]
		if o == nil || n == nil {
			return fmt.Errorf("workload %s is missing from a result file", w.Name)
		}
		if n.Failed > o.Failed || !n.Correct {
			fmt.Fprintf(tw, "%s\tfailed operations\t%d\t%d\t\tmust not rise\tworse\n", w.Name, o.Failed, n.Failed)
			worse++
		}
		for _, m := range spec.EndToEnd {
			om, nm := o.EndToEnd[m.Name], n.EndToEnd[m.Name]
			if len(om.Rounds) == 0 || len(nm.Rounds) == 0 {
				return fmt.Errorf("%s %s is missing from a result file", w.Name, m.Name)
			}
			v := verdict(m, om, nm)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%+.0f%%\t%s\n", w.Name, m.Name, om.Median, m.Unit, nm.Median, m.Unit,
				nm.Median/om.Median, signedBound(m)*100, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the baseline by more than their bound", worse)
	}
	return nil
}

// signedBound is the bound as a change of the median: positive for a metric
// where lower is better.
func signedBound(m metricSpec) float64 {
	if m.Better == "higher" {
		return -m.Bound
	}
	return m.Bound
}

// verdict compares the medians against the bound. A metric whose rounds
// spread by more than the bound on either side, and whose rounds overlap, is
// unresolved: the runs cannot tell a change of that size from noise.
func verdict(m metricSpec, old, new roundsMetric) string {
	change := new.Median/old.Median - 1
	if m.Better == "higher" {
		change = -change
	}
	loOld, hiOld := slices.Min(old.Rounds), slices.Max(old.Rounds)
	loNew, hiNew := slices.Min(new.Rounds), slices.Max(new.Rounds)
	spread := math.Max((hiOld-loOld)/old.Median, (hiNew-loNew)/new.Median)
	overlap := loNew <= hiOld && loOld <= hiNew
	switch {
	case spread > m.Bound && overlap:
		return "unresolved"
	case change > m.Bound:
		return "worse"
	default:
		return "ok"
	}
}

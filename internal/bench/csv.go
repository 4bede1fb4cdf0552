package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// CSV writers for every experiment's rows, so the figures can be re-plotted
// with external tooling. Each writer emits a header row followed by one
// record per table row; numbers use full float precision.

// WriteTable2CSV writes the support matrix.
func WriteTable2CSV(w io.Writer, rows []SupportRow) error {
	return writeCSV(w, []string{"query", "rows", "kind", "upa", "flex"}, len(rows), func(i int) []string {
		r := rows[i]
		return []string{r.Query, itoa(r.DatasetRows), string(r.Kind),
			strconv.FormatBool(r.UPASupported), strconv.FormatBool(r.FLEXSupported)}
	})
}

// WriteFig2aCSV writes the sensitivity-RMSE rows.
func WriteFig2aCSV(w io.Writer, rows []SensitivityRow) error {
	header := []string{"query", "upa_rel_rmse", "flex_rel_rmse", "flex_supported",
		"mean_truth", "mean_upa", "mean_flex"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{r.Query, ftoa(r.UPARelRMSE), ftoa(r.FLEXRelRMSE),
			strconv.FormatBool(r.FLEXSupported), ftoa(r.MeanTruth), ftoa(r.MeanUPA), ftoa(r.MeanFLEX)}
	})
}

// WriteFig2bCSV writes the measured overhead rows.
func WriteFig2bCSV(w io.Writer, rows []OverheadRow) error {
	header := []string{"query", "vanilla_us", "upa_us", "normalized",
		"vanilla_shuffles", "upa_shuffles"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{r.Query, dtoa(r.VanillaTime), dtoa(r.UPATime), ftoa(r.Normalized),
			itoa64(r.VanillaShuffles), itoa64(r.UPAShuffles)}
	})
}

// WriteFig2bSimCSV writes the simulated-testbed overhead rows.
func WriteFig2bSimCSV(w io.Writer, rows []SimulatedOverheadRow) error {
	header := []string{"query", "vanilla_sim_us", "upa_sim_us", "normalized"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{r.Query, dtoa(r.VanillaCost), dtoa(r.UPACost), ftoa(r.Normalized)}
	})
}

// WriteFig3CSV writes one record per (query, sample size).
func WriteFig3CSV(w io.Writer, rows []CoverageRow) error {
	header := []string{"query", "sample_size", "range_lo", "range_hi", "coverage",
		"true_min", "true_max", "neighbours", "normality_ks"}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		for i, n := range r.SampleSizes {
			rec := []string{r.Query, itoa(n), ftoa(r.RangeLo[i]), ftoa(r.RangeHi[i]),
				ftoa(r.Coverage[i]), ftoa(r.TrueMin), ftoa(r.TrueMax),
				itoa(r.NeighbourCount), ftoa(r.NormalityKS)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig4aCSV writes the dataset-size sweep.
func WriteFig4aCSV(w io.Writer, rows []ScaleRow) error {
	header := []string{"scale", "lineitems", "mean_normalized"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{itoa(r.ScaleFactor), itoa(r.Lineitems), ftoa(r.MeanNormalized)}
	})
}

// WriteStagesCSV writes the per-stage release breakdown.
func WriteStagesCSV(w io.Writer, rows []StageRow) error {
	header := []string{"query", "stage", "deps", "measured_us", "records", "shuffled_records",
		"shuffle_bytes", "reduce_ops", "cache_hits", "attempts",
		"task_faults", "retries", "sim_us", "critical"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{r.Query, r.Stage, strings.Join(r.Deps, ";"), dtoa(r.Measured),
			itoa64(r.Records), itoa64(r.ShuffledRecords), itoa64(r.ShuffleBytes),
			itoa64(r.ReduceOps), itoa64(r.CacheHits),
			itoa(r.Attempts), itoa64(r.TaskFaults), itoa64(r.Retries),
			dtoa(r.SimCost), strconv.FormatBool(r.Critical)}
	})
}

// WriteShuffleCSV writes the map-side-combine shuffle experiment rows.
func WriteShuffleCSV(w io.Writer, rows []ShuffleRow) error {
	header := []string{"skew", "records", "partitions", "distinct_keys",
		"raw_shuffled", "combined_shuffled", "combined_away", "reduction",
		"combined_sim_us", "raw_sim_us"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{ftoa(r.Skew), itoa(r.Records), itoa(r.Partitions), itoa(r.DistinctKeys),
			itoa64(r.RawShuffled), itoa64(r.CombinedShuffled), itoa64(r.CombinedAway),
			ftoa(r.Reduction), dtoa(r.CombinedSimCost), dtoa(r.RawSimCost)}
	})
}

// WriteOptimizerCSV writes the plan-optimizer raw-vs-optimized rows.
func WriteOptimizerCSV(w io.Writer, rows []OptimizerRow) error {
	header := []string{"workload", "query", "lineitems", "raw_shuffled", "opt_shuffled",
		"raw_mapped", "opt_mapped", "raw_cells", "opt_cells",
		"shuffle_reduction", "map_reduction", "cell_reduction",
		"raw_us", "opt_us",
		"records_batched", "batches_processed", "rewrites"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{r.Workload, r.Query, itoa(r.Lineitems),
			itoa64(r.RawShuffled), itoa64(r.OptShuffled),
			itoa64(r.RawMapped), itoa64(r.OptMapped),
			itoa64(r.RawCells), itoa64(r.OptCells),
			ftoa(r.ShuffleReduction), ftoa(r.MapReduction), ftoa(r.CellReduction),
			dtoa(r.RawTime), dtoa(r.OptTime),
			itoa64(r.RecordsBatched), itoa64(r.BatchesProcessed), itoa(r.Rewrites)}
	})
}

// WriteSpillCSV writes the out-of-core memory-budget sweep.
func WriteSpillCSV(w io.Writer, rows []SpillRow) error {
	header := []string{"budget", "records", "partitions", "distinct_keys",
		"spilled_bytes", "spill_files", "spill_reads", "wall_us", "slowdown",
		"fault_corruptions_detected", "fault_recomputes", "fault_write_retries",
		"fault_fallbacks_in_memory", "fault_wall_us"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{itoa64(r.Budget), itoa(r.Records), itoa(r.Partitions), itoa(r.DistinctKeys),
			itoa64(r.SpilledBytes), itoa64(r.SpillFiles), itoa64(r.SpillReads),
			dtoa(r.WallTime), ftoa(r.Slowdown),
			itoa64(r.FaultCorruptions), itoa64(r.FaultRecomputes), itoa64(r.FaultWriteRetries),
			itoa64(r.FaultFallbacks), dtoa(r.FaultWallTime)}
	})
}

// WriteChaosCSV writes the chaos fault-rate × retry-policy sweep. A row
// whose release did not complete has "—" for its price columns.
func WriteChaosCSV(w io.Writer, rows []ChaosRow) error {
	header := []string{"query", "fault_rate", "policy", "max_attempts", "completed",
		"deterministic", "task_faults", "task_retries", "shuffle_retries", "slots_lost",
		"backoff_us", "sim_us", "sim_retry_us", "overhead"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		sim, simRetry, overhead := dtoa(r.SimCost), dtoa(r.SimRetry), ftoa(r.Overhead)
		if !r.Completed {
			sim, simRetry, overhead = unpriced, unpriced, unpriced
		}
		return []string{r.Query, ftoa(r.FaultRate), r.Policy, itoa(r.MaxAttempts),
			strconv.FormatBool(r.Completed), strconv.FormatBool(r.Deterministic),
			itoa64(r.TaskFaults), itoa64(r.TaskRetries), itoa64(r.ShuffleRetries),
			itoa64(r.SlotsLost), dtoa(r.Backoff), sim, simRetry, overhead}
	})
}

// WriteFig4bCSV writes the sample-size sweep.
func WriteFig4bCSV(w io.Writer, rows []SampleSizeRow) error {
	header := []string{"sample_size", "mean_time_us", "mean_cache_hit_rate"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{itoa(r.SampleSize), dtoa(r.MeanTime), ftoa(r.MeanCacheHitRate)}
	})
}

func writeCSV(w io.Writer, header []string, n int, record func(i int) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		rec := record(i)
		if len(rec) != len(header) {
			return fmt.Errorf("bench: csv row %d has %d fields, header has %d", i, len(rec), len(header))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func itoa(v int) string     { return strconv.Itoa(v) }
func itoa64(v int64) string { return strconv.FormatInt(v, 10) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func dtoa(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Microsecond), 'g', -1, 64)
}

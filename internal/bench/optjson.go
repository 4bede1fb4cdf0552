package bench

import (
	"encoding/json"
	"io"
	"time"
)

// optimizerReportRow is the JSON shape of one optimizer-sweep workload in
// experiments/BENCH_optimizer.json: per-query wall clock for the two
// execution paths (raw, and optimized with columnar chains), the scan cells
// the optimizer narrowed, and the columnar converter counters.
type optimizerReportRow struct {
	Workload         string  `json:"workload"`
	Query            string  `json:"query"`
	Lineitems        int     `json:"lineitems"`
	RawUS            float64 `json:"raw_us"`
	ColumnarUS       float64 `json:"columnar_us"`
	RawScanCells     int64   `json:"raw_scan_cells"`
	OptScanCells     int64   `json:"opt_scan_cells"`
	RecordsBatched   int64   `json:"records_batched"`
	BatchesProcessed int64   `json:"batches_processed"`
	Rewrites         int     `json:"rewrites"`
}

// WriteOptimizerJSON writes the optimizer/physical-layer sweep as indented
// JSON — the machine-readable companion to WriteOptimizerCSV, recorded in
// the repo as experiments/BENCH_optimizer.json. Deliberately carries no
// timestamp: reruns on the same machine class should diff cleanly except
// for wall-clock jitter.
func WriteOptimizerJSON(w io.Writer, rows []OptimizerRow) error {
	report := struct {
		Experiment string               `json:"experiment"`
		Rows       []optimizerReportRow `json:"rows"`
	}{Experiment: "optimizer", Rows: make([]optimizerReportRow, len(rows))}
	for i, r := range rows {
		report.Rows[i] = optimizerReportRow{
			Workload:         r.Workload,
			Query:            r.Query,
			Lineitems:        r.Lineitems,
			RawUS:            float64(r.RawTime) / float64(time.Microsecond),
			ColumnarUS:       float64(r.OptTime) / float64(time.Microsecond),
			RawScanCells:     r.RawCells,
			OptScanCells:     r.OptCells,
			RecordsBatched:   r.RecordsBatched,
			BatchesProcessed: r.BatchesProcessed,
			Rewrites:         r.Rewrites,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

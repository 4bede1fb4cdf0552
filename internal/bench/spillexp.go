package bench

import (
	"fmt"
	"strings"
	"time"

	"upa/internal/chaos"
	"upa/internal/mapreduce"
	"upa/internal/stats"
)

// SpillRow is one memory-budget level of the out-of-core experiment: the
// same shuffle-heavy pipeline (keyed sum, join, global sort) run under a
// given engine budget, with the spill traffic the budget forced and the
// wall-clock cost relative to the fully in-memory run.
type SpillRow struct {
	// Budget is the engine memory budget in bytes (negative: unlimited,
	// zero: every materialization spills); Records, Partitions and
	// DistinctKeys size the keyed dataset.
	Budget       int64
	Records      int
	Partitions   int
	DistinctKeys int
	// SpilledBytes / SpillFiles / SpillReads are the engine's spill deltas
	// for the run: how much partition state crossed to disk, in how many
	// files, and how many times a spilled partition was read back.
	SpilledBytes int64
	SpillFiles   int64
	SpillReads   int64
	// WallTime is the min-of-reps elapsed time — indicative, not a
	// statistical claim (the spill counters are the load-bearing result).
	// Slowdown is WallTime over the unlimited-budget row's WallTime.
	WallTime time.Duration
	Slowdown float64
	// Fault* columns come from a second, chaos-armed run of the same budget
	// level under seeded disk faults (read/write errors, ENOSPC, torn
	// writes, in-flight corruption, rename failures): what the storage-fault
	// recovery machinery did while still producing — checked before the row
	// is accepted — the identical output.
	FaultCorruptions  int64
	FaultRecomputes   int64
	FaultWriteRetries int64
	FaultFallbacks    int64
	FaultWallTime     time.Duration
}

// SpillBench measures what out-of-core execution costs as the memory budget
// shrinks. Each budget level runs the identical pipeline — per-key sum,
// self-join on key, then a global SortBy — on a fresh engine, and the
// outputs are checked byte-for-byte against the unlimited-budget run before
// the row is accepted: spilling must never change a result, only where the
// intermediate partitions live. budgets nil defaults to
// {-1 (in-memory), 256 KiB, 16 KiB, 0 (spill everything)}.
func SpillBench(cfg Config, budgets []int64, reps int) ([]SpillRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(budgets) == 0 {
		budgets = []int64{-1, 256 << 10, 16 << 10, 0}
	}
	reps = max(reps, 1)
	const (
		numParts = 8
		keySpace = 2048
	)
	rng := stats.NewRNG(cfg.Seed)
	pairs := make([]mapreduce.Pair[int, int], cfg.Lineitems)
	distinct := make(map[int]bool)
	for i := range pairs {
		key := rng.Intn(keySpace)
		pairs[i] = mapreduce.Pair[int, int]{Key: key, Value: i}
		distinct[key] = true
	}

	var (
		rows    = make([]SpillRow, 0, len(budgets))
		refOut  string
		refTime time.Duration
	)
	for i, budget := range budgets {
		delta, out, elapsed, err := runSpillPipeline(pairs, numParts, budget, reps, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: spill budget %d: %w", budget, err)
		}
		if i == 0 {
			refOut, refTime = out, elapsed
		} else if out != refOut {
			return nil, fmt.Errorf("bench: spill budget %d changed the pipeline output", budget)
		}
		row := SpillRow{
			Budget:       budget,
			Records:      cfg.Lineitems,
			Partitions:   numParts,
			DistinctKeys: len(distinct),
			SpilledBytes: delta.SpilledBytes,
			SpillFiles:   delta.SpillFiles,
			SpillReads:   delta.SpillReads,
			WallTime:     elapsed,
		}
		if refTime > 0 {
			row.Slowdown = float64(elapsed) / float64(refTime)
		}
		// Chaos-armed rerun: the same pipeline under seeded disk faults. The
		// output must survive the recovery machinery unchanged; the counters
		// record what that recovery cost.
		inj := chaos.New(chaos.Policy{
			Seed:                cfg.Seed,
			DiskReadErrorRate:   0.05,
			DiskWriteErrorRate:  0.05,
			DiskENOSPCRate:      0.03,
			DiskTornWriteRate:   0.05,
			DiskCorruptionRate:  0.05,
			DiskRenameErrorRate: 0.05,
		})
		fdelta, fout, felapsed, err := runSpillPipeline(pairs, numParts, budget, 1, inj)
		if err != nil {
			return nil, fmt.Errorf("bench: spill budget %d under disk faults: %w", budget, err)
		}
		if fout != refOut {
			return nil, fmt.Errorf("bench: spill budget %d changed the pipeline output under disk faults", budget)
		}
		row.FaultCorruptions = fdelta.SpillCorruptionsDetected
		row.FaultRecomputes = fdelta.SpillRecomputes
		row.FaultWriteRetries = fdelta.SpillWriteRetries
		row.FaultFallbacks = fdelta.SpillFallbacksInMemory
		row.FaultWallTime = felapsed
		rows = append(rows, row)
	}
	return rows, nil
}

// runSpillPipeline runs the shuffle-heavy pipeline reps times, each on a
// fresh engine under the given budget (and, when inj is non-nil, under its
// seeded disk faults with enough retry attempts to ride them out), and
// returns the first run's spill delta and rendered output with the fastest
// wall time observed.
func runSpillPipeline(pairs []mapreduce.Pair[int, int], numParts int, budget int64, reps int, inj *chaos.Injector) (mapreduce.MetricsSnapshot, string, time.Duration, error) {
	var (
		delta mapreduce.MetricsSnapshot
		out   string
		best  time.Duration
	)
	for i := 0; i < reps; i++ {
		opts := []mapreduce.Option{mapreduce.WithMemoryBudget(budget)}
		if inj != nil {
			opts = append(opts,
				mapreduce.WithChaos(inj),
				// Zero backoff keeps the fault run's wall time a measure of
				// recovery work, not of sleeping.
				mapreduce.WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 8}))
		}
		eng := mapreduce.NewEngine(opts...)
		before := eng.Metrics()
		start := time.Now() //upa:allow(seededdeterminism) wall-clock measurement of real elapsed time, not a scheduling decision
		rendered, err := spillPipelineOnce(eng, pairs, numParts)
		elapsed := time.Since(start) //upa:allow(seededdeterminism) wall-clock measurement of real elapsed time, not a scheduling decision
		closeErr := eng.Close()
		if err != nil {
			return mapreduce.MetricsSnapshot{}, "", 0, err
		}
		if closeErr != nil {
			return mapreduce.MetricsSnapshot{}, "", 0, fmt.Errorf("engine close: %w", closeErr)
		}
		if i == 0 {
			delta, out, best = eng.Metrics().Sub(before), rendered, elapsed
			continue
		}
		best = min(best, elapsed)
	}
	return delta, out, best, nil
}

// spillPipelineOnce exercises every spill site once: the keyed sum and the
// join shuffle, the SortBy runs, and a persisted source store.
func spillPipelineOnce(eng *mapreduce.Engine, pairs []mapreduce.Pair[int, int], numParts int) (string, error) {
	d, err := mapreduce.FromSlice(eng, pairs, numParts)
	if err != nil {
		return "", err
	}
	sums := mapreduce.ReduceByKey(d, func(a, b int) int { return a + b })
	counts := mapreduce.ReduceByKey(
		mapreduce.Map(d, func(p mapreduce.Pair[int, int]) mapreduce.Pair[int, int] {
			return mapreduce.Pair[int, int]{Key: p.Key, Value: 1}
		}),
		func(a, b int) int { return a + b })
	joined, err := mapreduce.Join(sums, counts)
	if err != nil {
		return "", err
	}
	means := mapreduce.Map(joined, func(p mapreduce.Pair[int, mapreduce.Joined[int, int]]) mapreduce.Pair[int, int] {
		return mapreduce.Pair[int, int]{Key: p.Key, Value: p.Value.Left / max(p.Value.Right, 1)}
	})
	sorted, err := mapreduce.SortBy(means, numParts,
		func(a, b mapreduce.Pair[int, int]) bool { return a.Key < b.Key })
	if err != nil {
		return "", err
	}
	out, err := sorted.Collect()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, p := range out {
		fmt.Fprintf(&b, "%d=%d;", p.Key, p.Value)
	}
	return b.String(), nil
}

// RenderSpill renders the out-of-core budget sweep.
func RenderSpill(rows []SpillRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Out-of-core execution: spill traffic and wall time vs memory budget\n")
	fmt.Fprintf(&b, "(fault_* columns: the same budget rerun under seeded disk faults, output verified identical)\n")
	fmt.Fprintf(&b, "%-12s %9s %6s %6s %13s %8s %8s %10s %9s %8s %8s %8s %8s %12s\n",
		"budget", "records", "parts", "keys", "spilled_bytes", "files", "reads", "wall", "slowdown",
		"f_corr", "f_recomp", "f_retry", "f_fallbk", "fault_wall")
	for _, r := range rows {
		budget := "unlimited"
		if r.Budget >= 0 {
			budget = fmt.Sprintf("%d", r.Budget)
		}
		fmt.Fprintf(&b, "%-12s %9d %6d %6d %13d %8d %8d %10v %8.2fx %8d %8d %8d %8d %12v\n",
			budget, r.Records, r.Partitions, r.DistinctKeys,
			r.SpilledBytes, r.SpillFiles, r.SpillReads,
			r.WallTime.Round(time.Microsecond), r.Slowdown,
			r.FaultCorruptions, r.FaultRecomputes, r.FaultWriteRetries, r.FaultFallbacks,
			r.FaultWallTime.Round(time.Microsecond))
	}
	return b.String()
}

package core

import (
	"context"
	"fmt"
	"log/slog"
	"slices"

	"upa/internal/jobgraph"
	"upa/internal/mapreduce"
	"upa/internal/stats"
)

// approxRecordBytes estimates the serialized size of one shuffled record for
// the per-stage span accounting — the same 100-byte row the cluster cost
// model assumes for the paper's testbed.
const approxRecordBytes = 100

// Stage names of the release jobgraph. The DAG (see DESIGN.md):
//
//	partition-sample ─┬─► bulk-reduce ───────────────────────────────────┐
//	                  ├─► map-samples ─► prefix-suffix ─┬────────────────┼─► neighbour-join ─► fit ─► enforce ─► perturb
//	                  │                                 └► neighbour-deltas ┤
//	                  └─► map-additions ─────────────────────────────────┘
//
// Every stage is one task on the graph's slot pool; the engine jobs a stage
// starts run their own tasks on the engine's workers. neighbour-deltas (the
// n leave-one-out complements of Algorithm 1) depends only on prefix-suffix,
// so it overlaps the bulk R(M(S')) reduction — the pipelining that a flat
// phase loop serialized at artificial barriers. It is absent under
// DisableReuse, and map-additions without a domain sampler.
const (
	StagePartitionSample = "partition-sample"
	StageBulkReduce      = "bulk-reduce"
	StageMapSamples      = "map-samples"
	StageMapAdditions    = "map-additions"
	StagePrefixSuffix    = "prefix-suffix"
	StageNeighbourDeltas = "neighbour-deltas"
	StageNeighbourJoin   = "neighbour-join"
	StageFit             = "fit"
	StageEnforce         = "enforce"
	StagePerturb         = "perturb"
)

// Run executes query q on data end-to-end under UPA and returns the iDP
// release. domain samples a fresh record from the query's record domain D
// (used for the "addition" neighbouring datasets); a nil domain restricts
// the neighbouring samples to removals.
//
// data must hold at least two records (UPA targets big-data inputs; the
// RANGE ENFORCER needs two non-empty partitions). The engine reads the
// remaining records S' from data in place, so data must not be mutated
// while the call is in progress.
func Run[T any](sys *System, q Query[T], data []T, domain domainSampler[T]) (*Result, error) {
	//upa:allow(ctxpropagation) public convenience wrapper: callers without a context land here
	return RunCtx(context.Background(), sys, q, data, domain)
}

// RunCtx is Run under a context: the release executes as a jobgraph of
// stages on the engine's worker pool, and cancelling ctx stops the scheduler
// from starting new stages and the engine from claiming new partition tasks.
func RunCtx[T any](ctx context.Context, sys *System, q Query[T], data []T, domain domainSampler[T]) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("core: query %q needs at least two input records, got %d", q.Name, len(data))
	}

	release := sys.releases.Add(1)
	rng := sys.rng.Split(release)
	eng := sys.eng
	before := eng.Metrics()
	res := &Result{Query: q.Name, Release: release}

	n := sys.cfg.SampleSize
	if n > len(data) {
		// Small datasets degenerate to the exact local sensitivity over all
		// removals (§IV-A).
		n = len(data)
	}
	res.SampleSize = n

	reduce := q.reducer()

	// State shared between stages. Every variable is written by exactly one
	// stage and read only by stages that depend on it, so the scheduler's
	// completion ordering provides the happens-before edges.
	var (
		samples     []T
		halves      []int // which RANGE ENFORCER partition each sample came from
		additions   []T
		sPrime      [2]*mapreduce.Dataset[T]
		ms, msBar   []State
		rsPrimeHalf [2]State
		rsPrime     State // R(M(S')), nil when every record was sampled
		pre, suf    []State
		rest        []State // rest[i] = R(ms \ ms[i]) via prefix/suffix
		lo, hi      []float64
	)

	g := jobgraph.New("release:"+q.Name,
		jobgraph.WithSlots(eng.Workers()),
		// Stage-level retries share the engine's policy and seeded injector,
		// so one chaos configuration governs both schedulers.
		jobgraph.WithRetryPolicy(eng.RetryPolicy()),
		jobgraph.WithChaos(eng.Chaos()))

	// --- Phase 1: Partition and Sample (§III) -------------------------------
	g.Stage(StagePartitionSample, func(_ context.Context, sc *jobgraph.StageContext) error {
		// The RANGE ENFORCER requires the dataset split into two fixed
		// partitions; on a cluster this repartitioning exchanges records
		// between computers, which is the extra shuffle the paper attributes
		// >42% of UPA's overhead on local-computation queries to (§VI-D).
		mid := len(data) / 2
		eng.AccountShuffle(len(data))
		sc.AddRecords(int64(len(data)))
		sc.AddShuffle(int64(len(data)), int64(len(data))*approxRecordBytes)

		sampleIdx := rng.Split(1).SampleIndices(len(data), n)
		samples = make([]T, n)
		halves = make([]int, n)
		for i, idx := range sampleIdx {
			samples[i] = data[idx]
			if idx >= mid {
				halves[i] = 1
			}
		}
		if domain != nil {
			addRNG := rng.Split(2)
			additions = make([]T, n)
			for i := range additions {
				additions[i] = domain(addRNG)
			}
		}
		var err error
		sPrime, err = splitSPrime(eng, data, mid, sampleIdx)
		return err
	})

	// --- Phase 2/3: bulk reduction of R(M(S')) ------------------------------
	g.Stage(StageBulkReduce, func(ctx context.Context, sc *jobgraph.StageContext) error {
		var err error
		rsPrimeHalf, err = reduceSPrime(ctx, q, sPrime)
		if err != nil {
			return err
		}
		rsPrime, _ = combineOpt(reduce, eng, rsPrimeHalf[0], rsPrimeHalf[1])
		bulk := int64(len(data) - n)
		sc.AddRecords(bulk)
		if bulk > 1 {
			sc.AddReduceOps(bulk - 1)
		}
		if rsPrime != nil {
			// Computing R(M(S')) is the one cache miss of Figure 4(b).
			eng.AccountCache(0, 1)
		}
		return nil
	}, StagePartitionSample)

	// --- Phase 2: Parallel Map of the sampled differing records -------------
	g.Stage(StageMapSamples, func(ctx context.Context, sc *jobgraph.StageContext) error {
		var err error
		ms, err = mapThrough(ctx, eng, q, samples)
		sc.AddRecords(int64(len(samples)))
		return err
	}, StagePartitionSample)
	if domain != nil {
		g.Stage(StageMapAdditions, func(ctx context.Context, sc *jobgraph.StageContext) error {
			var err error
			msBar, err = mapThrough(ctx, eng, q, additions)
			sc.AddRecords(int64(len(additions)))
			return err
		}, StagePartitionSample)
	}

	// --- Phase 3: Union Preserving Reduce (Algorithm 1) ---------------------
	g.Stage(StagePrefixSuffix, func(_ context.Context, sc *jobgraph.StageContext) error {
		pre, suf = mapreduce.PrefixSuffix(eng, ms, reduce)
		if n > 1 {
			sc.AddReduceOps(int64(2 * (n - 1)))
		}
		return nil
	}, StageMapSamples)

	joinDeps := []string{StageBulkReduce, StagePrefixSuffix}
	if !sys.cfg.DisableReuse {
		// The per-neighbour complements rest[i] depend only on the
		// prefix/suffix partials, so this stage overlaps the bulk reduction.
		// Each complement is at most one combine, so the stage is one task.
		g.Stage(StageNeighbourDeltas, func(_ context.Context, sc *jobgraph.StageContext) error {
			rest = make([]State, n)
			for i := range rest {
				rest[i], _ = mapreduce.Complement(eng, pre, suf, i, i+1, reduce)
			}
			// Only the interior complements combine a prefix with a suffix.
			sc.AddReduceOps(int64(max(n-2, 0)))
			return nil
		}, StagePrefixSuffix)
		joinDeps = append(joinDeps, StageNeighbourDeltas)
	}
	if domain != nil {
		joinDeps = append(joinDeps, StageMapAdditions)
	}

	g.Stage(StageNeighbourJoin, func(ctx context.Context, sc *jobgraph.StageContext) error {
		fullState, fullOK := combineOpt(reduce, eng, rsPrime, last(pre))
		if !fullOK {
			return fmt.Errorf("core: query %q reduced to an empty state", q.Name)
		}
		res.VanillaOutput = q.finalize(fullState)

		if !sys.cfg.DisableReuse && rsPrime != nil {
			// Every removal neighbour below reuses R(M(S')): the n cache
			// hits of Figure 4(b).
			eng.AccountCache(int64(n), 0)
			sc.AddCacheHits(int64(n))
		}
		res.RemovalOutputs = make([][]float64, 0, n)
		for i := 0; i < n; i++ {
			var state State
			var ok bool
			if sys.cfg.DisableReuse {
				var err error
				state, ok, err = removalFromScratch(ctx, eng, q, sPrime, ms, i)
				if err != nil {
					return err
				}
			} else {
				// Reuse R(M(S')) and the precomputed prefix/suffix
				// complement: O(1) combines per neighbour.
				state, ok = combineOpt(reduce, eng, rsPrime, rest[i])
				sc.AddReduceOps(1)
			}
			if !ok {
				// Removing the only record of a two-record dataset still
				// leaves one; reaching here means every record was sampled
				// and removed, which cannot happen for n >= 2 inputs. Skip
				// defensively.
				continue
			}
			res.RemovalOutputs = append(res.RemovalOutputs, q.finalize(state))
		}
		for _, add := range msBar {
			state := reduce(fullState, add)
			eng.AccountReduceOps(1)
			sc.AddReduceOps(1)
			res.AdditionOutputs = append(res.AdditionOutputs, q.finalize(state))
		}

		// Group extension (§VI-E): when GroupSize > 1, also sample block
		// neighbours — whole groups of records removed or added at once —
		// reusing the same mapped samples, prefix/suffix partials and
		// R(M(S')). Contiguous sample blocks keep each group neighbour an
		// O(1) combine.
		if grp := sys.cfg.GroupSize; grp > 1 {
			for start := 0; start+grp <= n; start += grp {
				blockRest, _ := mapreduce.Complement(eng, pre, suf, start, start+grp, reduce)
				state, ok := combineOpt(reduce, eng, rsPrime, blockRest)
				if !ok {
					continue
				}
				res.GroupRemovalOutputs = append(res.GroupRemovalOutputs, q.finalize(state))
			}
			for start := 0; start+grp <= len(msBar); start += grp {
				g, ok := mapreduce.ReduceSlice(msBar[start:start+grp], reduce)
				if !ok {
					continue
				}
				eng.AccountReduceOps(int64(grp))
				sc.AddReduceOps(int64(grp))
				res.GroupAdditionOutputs = append(res.GroupAdditionOutputs, q.finalize(reduce(fullState, g)))
			}
		}
		// Stash fullState for the enforcer via the result's vanilla output;
		// the final state is recomputed from rsPrime + prefix below.
		return nil
	}, joinDeps...)

	// --- Phase 4: iDP Enforcement (Algorithm 2) ------------------------------
	g.Stage(StageFit, func(_ context.Context, sc *jobgraph.StageContext) error {
		neighbours := make([][]float64, 0,
			len(res.RemovalOutputs)+len(res.AdditionOutputs)+
				len(res.GroupRemovalOutputs)+len(res.GroupAdditionOutputs))
		neighbours = append(neighbours, res.RemovalOutputs...)
		neighbours = append(neighbours, res.AdditionOutputs...)
		neighbours = append(neighbours, res.GroupRemovalOutputs...)
		neighbours = append(neighbours, res.GroupAdditionOutputs...)
		sc.AddRecords(int64(len(neighbours)))
		columnRange := fittedRange
		if sys.cfg.EmpiricalRange {
			columnRange = empiricalRange
		}
		var sens []float64
		var err error
		sens, lo, hi, err = inferSensitivity(neighbours, q.OutputDim, sys.cfg.PercentileLo, sys.cfg.PercentileHi, columnRange)
		if err != nil {
			return fmt.Errorf("core: query %q: %w", q.Name, err)
		}
		res.Sensitivity, res.RangeLo, res.RangeHi = sens, lo, hi
		res.EmpiricalLocalSensitivity = empiricalSensitivity(res.VanillaOutput, neighbours)
		return nil
	}, StageNeighbourJoin)

	g.Stage(StageEnforce, func(_ context.Context, sc *jobgraph.StageContext) error {
		parts := partitionOutputs(q, reduce, eng, rsPrimeHalf, ms, halves, 0)
		removed := 0
		for {
			name, collides := sys.enforcer.Collides(parts)
			if !collides {
				break
			}
			res.AttackSuspected = true
			if res.CollidedWith == "" {
				res.CollidedWith = name
			}
			if removed+2 > n {
				// Sample set exhausted; release with maximal removal.
				break
			}
			removed += 2
			parts = partitionOutputs(q, reduce, eng, rsPrimeHalf, ms, halves, removed)
			sc.AddReduceOps(int64(n - removed))
		}
		res.RemovedRecords = removed

		finalState, finalOK := combineOpt(reduce, eng, rsPrime, prefixUpTo(pre, n-removed))
		if !finalOK {
			finalState = make(State, q.StateDim)
		}
		raw := q.finalize(finalState)
		if !sys.cfg.DisableClamp {
			clamped, nClamped := Clamp(raw, lo, hi, rng.Split(3))
			raw = clamped
			res.ClampedCoords = nClamped
		}
		res.RawOutput = raw
		sys.enforcer.Record(q.Name, parts)
		return nil
	}, StageFit)

	g.Stage(StagePerturb, func(_ context.Context, _ *jobgraph.StageContext) error {
		// A per-release mechanism keeps concurrent releases race-free and
		// their noise streams deterministic per release number. Under
		// SplitVectorBudget, vector outputs split ε across coordinates so
		// the whole release composes to one ε.
		effEps := sys.cfg.Epsilon
		if sys.cfg.SplitVectorBudget && q.OutputDim > 1 {
			effEps /= float64(q.OutputDim)
		}
		res.EffectiveEpsilon = effEps
		mech, err := stats.NewMechanism(effEps, rng.Split(4))
		if err != nil {
			return err
		}
		noisy, err := mech.PerturbVector(res.RawOutput, res.Sensitivity)
		if err != nil {
			return err
		}
		res.Output = noisy
		return nil
	}, StageEnforce)

	spans, err := g.Run(ctx)
	res.Spans = spans
	if err != nil {
		return nil, err
	}
	// Charge the budget ledger exactly once, only after the whole release
	// succeeded: recomputation under faults must never double-spend ε, and a
	// failed release spends nothing (no output was published).
	sys.chargeEpsilon(res.EffectiveEpsilon * float64(q.OutputDim))
	res.Phases = phasesFromSpans(spans)
	res.EngineDelta = eng.Metrics().Sub(before)
	if logger := sys.cfg.Logger; logger != nil {
		logger.Info("upa release",
			slog.String("query", q.Name),
			slog.Uint64("release", release),
			slog.Int("records", len(data)),
			slog.Int("sample_size", n),
			slog.Int("stages", len(spans)),
			slog.Duration("partition_sample", res.Phases.PartitionSample),
			slog.Duration("parallel_map", res.Phases.ParallelMap),
			slog.Duration("union_preserving_reduce", res.Phases.UnionPreservingReduce),
			slog.Duration("idp_enforcement", res.Phases.IDPEnforcement),
			// The inferred sensitivity is deliberately NOT logged: it is a
			// data-dependent pre-noise value, and a release log is
			// operator-visible output (dpflow would flag it).
			slog.Bool("attack_suspected", res.AttackSuspected),
			slog.Int("removed_records", res.RemovedRecords),
			slog.Int("clamped_coords", res.ClampedCoords),
		)
	}
	return res, nil
}

// phasesFromSpans maps the jobgraph stage spans onto the paper's four phases
// (§III). Stages within a phase may have overlapped, so a phase's time is
// the sum of its stages' busy time, not a wall-clock interval.
func phasesFromSpans(spans []jobgraph.Span) PhaseTimings {
	var p PhaseTimings
	for _, s := range spans {
		switch s.Stage {
		case StagePartitionSample:
			p.PartitionSample += s.Duration()
		case StageMapSamples, StageMapAdditions:
			p.ParallelMap += s.Duration()
		case StageBulkReduce, StagePrefixSuffix, StageNeighbourDeltas, StageNeighbourJoin:
			p.UnionPreservingReduce += s.Duration()
		case StageFit, StageEnforce, StagePerturb:
			p.IDPEnforcement += s.Duration()
		}
	}
	return p
}

// mapThrough maps records through the engine, preserving order.
func mapThrough[T any](ctx context.Context, eng *mapreduce.Engine, q Query[T], records []T) ([]State, error) {
	if len(records) == 0 {
		return nil, nil
	}
	parts := eng.Workers()
	if parts > len(records) {
		parts = len(records)
	}
	ds, err := mapreduce.FromSlice(eng, records, parts)
	if err != nil {
		return nil, err
	}
	return mapreduce.Map(ds, q.Map).CollectCtx(ctx)
}

// splitSPrime builds the datasets of the two remaining-record halves: S' of
// half h is data[:mid] or data[mid:] minus that half's sampled positions,
// read in place by the engine rather than copied. A half with no remaining
// record has a nil dataset.
func splitSPrime[T any](eng *mapreduce.Engine, data []T, mid int, sampleIdx []int) ([2]*mapreduce.Dataset[T], error) {
	skip := slices.Clone(sampleIdx)
	slices.Sort(skip)
	cut, _ := slices.BinarySearch(skip, mid)
	for k := cut; k < len(skip); k++ {
		skip[k] -= mid
	}
	halfData := [2][]T{data[:mid], data[mid:]}
	halfSkip := [2][]int{skip[:cut], skip[cut:]}
	var out [2]*mapreduce.Dataset[T]
	for h := 0; h < 2; h++ {
		size := len(halfData[h]) - len(halfSkip[h])
		if size == 0 {
			continue
		}
		ds, err := mapreduce.FromSliceExcept(eng, halfData[h], halfSkip[h], min(eng.Workers(), size))
		if err != nil {
			return out, err
		}
		out[h] = ds
	}
	return out, nil
}

// reduceSPrime computes R(M(S')) of each half in one fused map-and-reduce
// pass over its records, returning the per-half partial state or nil when
// the half is empty. Each call re-reads the records, so the scratch-recompute
// ablation re-executes the map as lineage recomputation would.
func reduceSPrime[T any](ctx context.Context, q Query[T], sPrime [2]*mapreduce.Dataset[T]) ([2]State, error) {
	var out [2]State
	first, step := q.fold()
	for h := 0; h < 2; h++ {
		if sPrime[h] == nil {
			continue
		}
		state, err := mapreduce.ReduceCtx(ctx, mapreduce.MapFold(sPrime[h], first, step), q.reducer())
		if err != nil {
			return out, err
		}
		out[h] = state
	}
	return out, nil
}

// removalFromScratch recomputes f's state on x - samples[i] with no reuse:
// it re-reduces the full remaining datasets and every other sample — the
// per-neighbour linear cost UPA eliminates (ablation for §VI-E).
func removalFromScratch[T any](ctx context.Context, eng *mapreduce.Engine, q Query[T], sPrime [2]*mapreduce.Dataset[T], ms []State, i int) (State, bool, error) {
	reduce := q.reducer()
	rsPrimeHalf, err := reduceSPrime(ctx, q, sPrime)
	if err != nil {
		return nil, false, err
	}
	acc, ok := combineOpt(reduce, eng, rsPrimeHalf[0], rsPrimeHalf[1])
	for j, state := range ms {
		if j == i {
			continue
		}
		if !ok {
			acc, ok = state, true
			continue
		}
		acc = reduce(acc, state)
		eng.AccountReduceOps(1)
	}
	return acc, ok, nil
}

// partitionOutputs computes the query's finalized output on each RANGE
// ENFORCER partition of x, with the last `removed` samples excluded
// (Algorithm 2, lines 10–12).
func partitionOutputs[T any](q Query[T], reduce mapreduce.Reducer[State], eng *mapreduce.Engine,
	rsPrimeHalf [2]State, ms []State, halves []int, removed int) [2][]float64 {
	var parts [2][]float64
	keep := len(ms) - removed
	for h := 0; h < 2; h++ {
		acc := rsPrimeHalf[h]
		ok := acc != nil
		for i := 0; i < keep; i++ {
			if halves[i] != h {
				continue
			}
			if !ok {
				acc, ok = ms[i], true
				continue
			}
			acc = reduce(acc, ms[i])
			eng.AccountReduceOps(1)
		}
		if !ok {
			acc = make(State, q.StateDim)
		}
		parts[h] = q.finalize(acc)
	}
	return parts
}

// inferSensitivity turns the sampled neighbouring outputs into the
// percentile-range sensitivity and output range, one output coordinate at a
// time: columnRange maps the coordinate's column of neighbouring outputs to
// its [lo, hi] range (Algorithm 1, lines 17–21).
func inferSensitivity(neighbours [][]float64, dim int, pLo, pHi float64,
	columnRange func(column []float64, pLo, pHi float64) (lo, hi float64, err error)) (sens, lo, hi []float64, err error) {
	if len(neighbours) < 2 {
		return nil, nil, nil, fmt.Errorf("only %d sampled neighbouring outputs", len(neighbours))
	}
	sens = make([]float64, dim)
	lo = make([]float64, dim)
	hi = make([]float64, dim)
	column := make([]float64, len(neighbours))
	for d := 0; d < dim; d++ {
		for i, out := range neighbours {
			if len(out) != dim {
				return nil, nil, nil, fmt.Errorf("neighbouring output %d has %d coordinates, want %d", i, len(out), dim)
			}
			column[i] = out[d]
		}
		l, h, rerr := columnRange(column, pLo, pHi)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		lo[d], hi[d] = l, h
		sens[d] = h - l
	}
	return sens, lo, hi, nil
}

// fittedRange is the paper's rule: the pLo/pHi percentiles of a normal
// distribution fitted to the column.
func fittedRange(column []float64, pLo, pHi float64) (float64, float64, error) {
	fit, err := stats.FitNormalMLE(column)
	if err != nil {
		return 0, 0, err
	}
	return fit.PercentileRange(pLo, pHi)
}

// empiricalRange is the distribution-free alternative: the empirical
// pLo/pHi quantiles of the column. It trades the paper's parametric
// smoothing for exactness on non-normal neighbour distributions (the §VI-C
// TPCH1 discussion).
func empiricalRange(column []float64, pLo, pHi float64) (float64, float64, error) {
	l, err := stats.EmpiricalQuantile(column, pLo)
	if err != nil {
		return 0, 0, err
	}
	h, err := stats.EmpiricalQuantile(column, pHi)
	return l, h, err
}

// empiricalSensitivity returns, per coordinate, the greatest |f(y) - f(x)|
// over the sampled neighbouring outputs.
func empiricalSensitivity(output []float64, neighbours [][]float64) []float64 {
	out := make([]float64, len(output))
	for _, n := range neighbours {
		for d := range output {
			if diff := abs(n[d] - output[d]); diff > out[d] {
				out[d] = diff
			}
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// combineOpt reduces two optional states (nil means absent).
func combineOpt(reduce mapreduce.Reducer[State], eng *mapreduce.Engine, a, b State) (State, bool) {
	return mapreduce.CombineOpt(eng, reduce, a, a != nil, b, b != nil)
}

func last(pre []State) State {
	if len(pre) == 0 {
		return nil
	}
	return pre[len(pre)-1]
}

// prefixUpTo returns the reduction of the first k samples (nil for k <= 0).
func prefixUpTo(pre []State, k int) State {
	if k <= 0 || len(pre) == 0 {
		return nil
	}
	if k > len(pre) {
		k = len(pre)
	}
	return pre[k-1]
}

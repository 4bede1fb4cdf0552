package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"upa/internal/colbatch"
	"upa/internal/core"
	"upa/internal/jobgraph"
	"upa/internal/mapreduce"
	"upa/internal/serve"
	"upa/internal/sql"
	"upa/internal/stats"
)

// prober times calls into each layer's public functions from outside, one
// span per timed batch, and collects the per-layer metrics they yield. Every
// traced run executes the whole suite, whatever its workload: a layer number
// is then always a measurement, and the numbers of one layer across the five
// traced runs show how far the machine drifted between them.
type prober struct {
	ctx  context.Context
	tr   *tracer
	out  map[string]float64
	seed uint64
}

// perCall times samples batches of inner calls of fn and returns the median
// time of one call.
func (p *prober) perCall(name string, samples, inner int, fn func() error) (time.Duration, error) {
	per := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		if err := p.ctx.Err(); err != nil {
			return 0, err
		}
		id := p.tr.start(name, 0, -1)
		start := time.Now()
		for i := 0; i < inner; i++ {
			if err := fn(); err != nil {
				p.tr.end(id)
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		elapsed := time.Since(start)
		p.tr.end(id)
		per = append(per, float64(elapsed)/float64(inner))
	}
	return time.Duration(median(per)), nil
}

// sink keeps the results of timed pure calls alive.
var sink uint64

// probeHost times a fixed integer loop: the number that explains why every
// other time of a run is high or low together.
func (p *prober) probeHost() error {
	d, err := p.perCall("host.calib", 5, 1, func() error {
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
		return nil
	})
	p.out["host.calib_ms"] = ms(d)
	p.out["host.nproc"] = float64(runtime.NumCPU())
	p.out["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	return err
}

// probePlanJSON is the ad-hoc count the serving probes send: small enough
// that a hit is all HTTP, JSON, fingerprint and locks.
const probePlanJSON = `{"op":"aggregate","aggs":[{"name":"n","func":"count"}],"input":{"op":"filter","pred":{"op":"lt","left":{"col":"o_orderdate"},"right":{"int":1200}},"input":{"op":"scan","table":"orders"}}}`

// probeServing measures the HTTP floor and the cache-hit path over HTTP and
// in-process; their difference is what the server binary adds to a hit.
func (p *prober) probeServing(srv *serverProc, svc *serve.Service, ref *reference) error {
	get := func() error {
		resp, err := srv.client.Get(srv.base + "/healthz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	d, err := p.perCall("http GET /healthz", 20, 20, get)
	if err != nil {
		return err
	}
	p.out["http.healthz_us"] = us(d)

	req := serve.Request{Tenant: tenant, User: user, Plan: json.RawMessage(probePlanJSON), Seed: mix(p.seed, 7)}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if _, err := srv.postQuery(body); err != nil { // the miss that fills the key
		return err
	}
	hits := make([]float64, 0, 2000)
	for i := 0; i < cap(hits); i++ {
		id := p.tr.start("http POST /query", 0, -1)
		start := time.Now()
		reply, err := srv.postQuery(body)
		elapsed := time.Since(start)
		p.tr.end(id)
		if err != nil {
			return err
		}
		if !reply.Cached {
			return fmt.Errorf("probe request %d was not served from the release cache", i)
		}
		hits = append(hits, us(elapsed))
	}
	p.out["serve.hit_p99_ms"] = percentile(hits, 0.99) / 1000

	if _, serr := svc.Query(p.ctx, req); serr != nil {
		return serr
	}
	d, err = p.perCall("serve.Service.Query", 20, 100, func() error {
		rel, serr := svc.Query(p.ctx, req)
		if serr != nil {
			return serr
		}
		if !rel.Cached {
			return fmt.Errorf("in-process probe was not served from the release cache")
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["serve.query_hit_us"] = us(d)
	p.out["http.hit_overhead_us"] = median(hits) - us(d)

	var plan sql.Plan
	d, err = p.perCall("serve.DecodePlan", 20, 100, func() error {
		var derr error
		plan, derr = serve.DecodePlan([]byte(probePlanJSON), ref.tables)
		return derr
	})
	if err != nil {
		return err
	}
	p.out["serve.decode_plan_us"] = us(d)

	d, _ = p.perCall("sql.Fingerprint", 20, 100, func() error {
		sink += uint64(len(sql.Fingerprint(plan)))
		return nil
	})
	p.out["sql.fingerprint_us"] = us(d)
	d, err = p.perCall("sql.SupportsDPCount", 20, 100, func() error { return sql.SupportsDPCount(plan, "orders") })
	if err != nil {
		return err
	}
	p.out["sql.supports_dp_us"] = us(d)
	d, _ = p.perCall("sql.Optimize", 20, 100, func() error {
		_, rewrites := sql.Optimize(plan)
		sink += uint64(len(rewrites))
		return nil
	})
	p.out["sql.optimize_us"] = us(d)
	return nil
}

// probeRelease splits a cache miss of each canned plan into its layers:
// serve.Service.Query as a whole, then sql.CompileDPCount and core.RunCtx on
// their own. What Query takes beyond the two is serve's own time: admission,
// ledger journal fsyncs, cache store, the jobgraph wrapper.
func (p *prober) probeRelease(svc *serve.Service, eng *mapreduce.Engine, ref *reference, own []opKind) error {
	var selfMS, shares []float64
	for k, kind := range namedKinds {
		plan, err := ref.plan(kind)
		if err != nil {
			return err
		}
		var query, compile, run []float64
		for s := 0; s < 3; s++ {
			if err := p.ctx.Err(); err != nil {
				return err
			}
			seed := mix(p.seed, 8, uint64(k), uint64(s))
			root := p.tr.start("probe release "+kind.name, 0, -1)

			id := p.tr.start("serve.Service.Query", root, -1)
			start := time.Now()
			_, serr := svc.Query(p.ctx, serve.Request{Tenant: tenant, User: user, PlanName: kind.planName, Protected: kind.protected, Seed: seed})
			query = append(query, ms(time.Since(start)))
			p.tr.end(id)
			if serr != nil {
				return serr
			}

			id = p.tr.start("sql.CompileDPCount", root, -1)
			start = time.Now()
			q, data, err := sql.CompileDPCount(eng, plan, kind.protected)
			compile = append(compile, ms(time.Since(start)))
			p.tr.end(id)
			if err != nil {
				return err
			}

			ccfg := core.DefaultConfig()
			ccfg.SampleSize = ref.sz.sampleSize
			ccfg.Epsilon = epsilon
			ccfg.Seed = seed | 1
			sys, err := core.NewSystem(eng, ccfg)
			if err != nil {
				return err
			}
			id = p.tr.start("core.RunCtx", root, -1)
			start = time.Now()
			_, err = core.RunCtx(p.ctx, sys, q, data, nil)
			run = append(run, ms(time.Since(start)))
			p.tr.end(id)
			p.tr.end(root)
			if err != nil {
				return err
			}
			selfMS = append(selfMS, query[s]-compile[s]-run[s])
		}
		p.out["sql.compile_dp_ms."+kind.name] = median(compile)
		p.out["core.run_ms."+kind.name] = median(run)
		for _, o := range own {
			if o.name == kind.name {
				shares = append(shares, median(compile)/(median(compile)+median(run)))
			}
		}
	}
	p.out["serve.miss_self_ms"] = median(selfMS)
	p.out["sql.influence_share"] = mean(shares) // 0 on a workload that runs no canned plan
	return nil
}

// probeSQL compares the optimized and the as-written execution of the two
// plans ROADMAP item 1 flags as slower optimized; /query rejects both (they
// are not counts), so they move no end-to-end metric today.
func (p *prober) probeSQL(eng *mapreduce.Engine, ref *reference) error {
	executors := []struct {
		prefix string
		exec   func(*mapreduce.Engine, sql.Plan) ([]sql.Row, sql.Schema, error)
	}{{"sql.execute_ms.", sql.Execute}, {"sql.execute_raw_ms.", sql.ExecuteRaw}}
	for _, name := range []string{"tpch6", "tpch1full"} {
		plan := ref.named[name]
		for _, e := range executors {
			d, err := p.perCall(e.prefix+name, 3, 1, func() error {
				rows, _, err := e.exec(eng, plan)
				sink += uint64(len(rows))
				return err
			})
			if err != nil {
				return err
			}
			p.out[e.prefix+name] = ms(d)
		}
	}
	return nil
}

// probeColbatch times two kernels on one 1024-row batch of floats.
func (p *prober) probeColbatch() {
	const rows = 1024
	a, b, dst, mask := make([]float64, rows), make([]float64, rows), make([]float64, rows), make([]bool, rows)
	rng := stats.NewRNG(p.seed)
	for i := range a {
		a[i], b[i] = rng.Float64(), rng.Float64()
	}
	d, _ := p.perCall("colbatch.GtConst", 20, 1000, func() error { colbatch.GtConst(mask, a, 0.5); return nil })
	p.out["colbatch.cmp_const_ns_per_row"] = float64(d) / rows
	d, _ = p.perCall("colbatch.Mul", 20, 1000, func() error { colbatch.Mul(dst, a, b); return nil })
	p.out["colbatch.mul_ns_per_row"] = float64(d) / rows
}

// probeEngine times the three wide operations on synthetic pairs, once on an
// engine that keeps everything in memory and once on one that spills every
// materialization.
func (p *prober) probeEngine(records int) error {
	type pair = mapreduce.Pair[int, float64]
	left := make([]pair, records)
	for i := range left {
		left[i] = pair{Key: int(mix(p.seed, 9, uint64(i)) % uint64(records/4+1)), Value: float64(i)}
	}
	right := make([]pair, records/4+1)
	for i := range right {
		right[i] = pair{Key: i, Value: float64(-i)}
	}
	for _, e := range []struct {
		suffix string
		budget int64
	}{{"_ms", -1}, {"_spill_ms", 0}} {
		eng := mapreduce.NewEngine(mapreduce.WithMemoryBudget(e.budget))
		err := p.engineTrio(eng, left, right, e.suffix)
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) engineTrio(eng *mapreduce.Engine, left, right []mapreduce.Pair[int, float64], suffix string) error {
	type pair = mapreduce.Pair[int, float64]
	l, err := mapreduce.FromSlice(eng, left, eng.Workers())
	if err != nil {
		return err
	}
	r, err := mapreduce.FromSlice(eng, right, eng.Workers())
	if err != nil {
		return err
	}
	sum := func(a, b float64) float64 { return a + b }
	ops := []struct {
		name string
		run  func() (int, error)
	}{
		{"mapreduce.reduce_by_key", func() (int, error) { return mapreduce.ReduceByKeyCtx(p.ctx, l, sum).CountCtx(p.ctx) }},
		{"mapreduce.join", func() (int, error) {
			joined, err := mapreduce.JoinCtx(p.ctx, l, r)
			if err != nil {
				return 0, err
			}
			return joined.CountCtx(p.ctx)
		}},
		{"mapreduce.sort_by", func() (int, error) {
			ordered, err := mapreduce.SortBy(l, eng.Workers(), func(a, b pair) bool { return a.Key < b.Key })
			if err != nil {
				return 0, err
			}
			return ordered.CountCtx(p.ctx)
		}},
	}
	for _, op := range ops {
		d, err := p.perCall(op.name+suffix, 3, 1, func() error {
			n, err := op.run()
			sink += uint64(n)
			return err
		})
		if err != nil {
			return err
		}
		p.out[op.name+suffix] = ms(d)
	}
	return nil
}

// probePaper runs the nine queries three times each way, splits RunUPA by the
// phases core reports in Result.Phases, and relates it to RunVanilla: the
// overhead over the non-private evaluation that the paper's Fig. 2(b) plots.
func (p *prober) probePaper(eng *mapreduce.Engine, ref *reference) error {
	var sample, mapPhase, reduce, enforce float64
	var vanillas, overheads []float64
	for k, name := range paperQueries {
		runner, err := ref.w.ByName(name)
		if err != nil {
			return err
		}
		var phases [4][]float64
		var total, plain []float64
		for s := 0; s < 3; s++ {
			if err := p.ctx.Err(); err != nil {
				return err
			}
			ccfg := core.DefaultConfig()
			ccfg.SampleSize = ref.sz.sampleSize
			ccfg.Epsilon = epsilon
			ccfg.Seed = mix(p.seed, 10, uint64(k), uint64(s)) | 1
			sys, err := core.NewSystem(eng, ccfg)
			if err != nil {
				return err
			}
			id := p.tr.start("queries.Runner.RunUPA "+name, 0, -1)
			start := time.Now()
			res, err := runner.RunUPA(sys)
			total = append(total, ms(time.Since(start)))
			p.tr.end(id)
			if err != nil {
				return err
			}
			for i, d := range []time.Duration{res.Phases.PartitionSample, res.Phases.ParallelMap, res.Phases.UnionPreservingReduce, res.Phases.IDPEnforcement} {
				phases[i] = append(phases[i], ms(d))
			}
			id = p.tr.start("queries.Runner.RunVanilla "+name, 0, -1)
			start = time.Now()
			_, err = runner.RunVanilla(eng)
			plain = append(plain, ms(time.Since(start)))
			p.tr.end(id)
			if err != nil {
				return err
			}
		}
		inPhases := median(phases[0]) + median(phases[1]) + median(phases[2]) + median(phases[3])
		sample += median(phases[0])
		mapPhase += median(phases[1])
		reduce += median(phases[2])
		enforce += median(phases[3])
		vanillas = append(vanillas, median(plain))
		overheads = append(overheads, median(total)/median(plain))
		switch name {
		case "KMeans":
			p.out["core.phase_share.kmeans"] = inPhases / median(total)
		case "Linear Regression":
			p.out["core.phase_share.linreg"] = inPhases / median(total)
		}
	}
	p.out["core.partition_sample_ms"] = sample
	p.out["core.parallel_map_ms"] = mapPhase
	p.out["core.union_reduce_ms"] = reduce
	p.out["core.enforce_ms"] = enforce
	p.out["core.vanilla_geomean_ms"] = geomean(vanillas)
	p.out["core.overhead_ratio_geomean"] = geomean(overheads)
	return nil
}

// probeJobgraph times a chain of ten empty stages: what the scheduler costs
// per stage when the stages do nothing.
func (p *prober) probeJobgraph() error {
	const stages = 10
	d, err := p.perCall("jobgraph.Graph.Run", 20, 10, func() error {
		g := jobgraph.New("probe", jobgraph.WithSlots(runtime.GOMAXPROCS(0)))
		for s := 0; s < stages; s++ {
			var deps []string
			if s > 0 {
				deps = []string{strconv.Itoa(s - 1)}
			}
			g.Stage(strconv.Itoa(s), func(context.Context, *jobgraph.StageContext) error { return nil }, deps...)
		}
		_, err := g.Run(p.ctx)
		return err
	})
	p.out["jobgraph.stage_overhead_us"] = us(d) / stages
	return err
}

// probeStats times the three kernels core's sampling and enforcement phases
// call.
func (p *prober) probeStats() error {
	rng := stats.NewRNG(p.seed)
	lap := stats.Laplace{B: 10}
	var acc float64
	d, _ := p.perCall("stats.Laplace.Sample", 20, 10000, func() error { acc += lap.Sample(rng); return nil })
	p.out["stats.laplace_ns"] = float64(d)

	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	d, err := p.perCall("stats.FitNormalMLE", 20, 100, func() error {
		fit, err := stats.FitNormalMLE(samples)
		acc += fit.Mu
		return err
	})
	if err != nil {
		return err
	}
	p.out["stats.fit_normal_us"] = us(d)

	d, _ = p.perCall("stats.RNG.SampleIndices", 20, 20, func() error {
		sink += uint64(len(rng.SampleIndices(100000, 1000)))
		return nil
	})
	p.out["stats.sample_indices_us"] = us(d)
	sink += uint64(acc)
	return nil
}

package main

import (
	"context"
	"fmt"
	"time"

	"upa/internal/mapreduce"
)

// runTraced is the traced pass of one workload. It measures the workload for
// half the run with spans on every second segment (the difference of the two
// halves' p50 is the tracing overhead), divides the growth of the layer
// counters by the operations completed, replays the head of the workload
// in-process and demands bit-identical releases, and runs the layer probes.
func runTraced(ctx context.Context, cfg *config, def workloadDef, t target, budget time.Duration) (*result, error) {
	tr := newTracer()
	traced, err := measure(ctx, t, budget/2, tr)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: traced.failed == 0, Attempted: traced.attempted, Failed: traced.failed}
	if traced.firstErr != nil {
		fmt.Fprintf(cfg.log, "%s: first failed %v\n", def.name, traced.firstErr)
	}
	if len(traced.latTraced) == 0 {
		return nil, fmt.Errorf("no traced operation succeeded: %w", traced.firstErr)
	}
	if err := t.finish(); err != nil {
		res.Correct = false
		fmt.Fprintf(cfg.log, "%s: after-workload check failed: %v\n", def.name, err)
	}

	ops := float64(traced.ops())
	c := traced.counts
	values := map[string]float64{
		"trace.overhead_p50_ms":             percentile(traced.latTraced, 0.5) - percentile(traced.latPlain, 0.5),
		"dp.rel_err_p50":                    median(t.relErrs()),
		"serve.cache_hit_ratio":             ratio(c["cache_hits"], c["cache_hits"]+c["admitted"]),
		"serve.shed_ratio":                  c["shed"] / ops,
		"serve.eps_charged_per_op":          c["eps"] / ops,
		"colbatch.records_batched_per_op":   c["records_batched"] / ops,
		"colbatch.batches_per_op":           c["batches"] / ops,
		"mapreduce.tasks_per_op":            c["tasks"] / ops,
		"mapreduce.shuffle_rounds_per_op":   c["shuffle_rounds"] / ops,
		"mapreduce.records_shuffled_per_op": c["records_shuffled"] / ops,
		"mapreduce.records_mapped_per_op":   c["records_mapped"] / ops,
		"mapreduce.combine_ratio":           ratio(c["post_combine"], c["pre_combine"]),
		"mapreduce.spilled_bytes_per_op":    c["spilled_bytes"] / ops,
		"mapreduce.spill_reads_per_op":      c["spill_reads"] / ops,
		"mapreduce.task_retries_per_op":     c["task_retries"] / ops,
	}

	// The probes need a server for the HTTP floor and the data for the rest.
	// The library workload has neither yet: it borrows the scan workload's.
	st, isServe := t.(*serveTarget)
	var own []opKind // the canned plans this workload runs
	if isServe {
		if err := replayHead(ctx, tr, st); err != nil {
			res.Correct = false
			fmt.Fprintf(cfg.log, "%s: in-process replay: %v\n", def.name, err)
		}
		for _, s := range st.slots {
			own = append(own, s.k)
		}
	} else {
		ref, err := buildReference(cfg.sz, cfg.seed)
		if err != nil {
			return nil, err
		}
		scan, _ := findWorkload("serve_miss_scan")
		if st, err = newServeTarget(cfg, scan, ref); err != nil {
			return nil, err
		}
		if err := st.setup(ctx); err != nil {
			return nil, fmt.Errorf("probe server: %w", err)
		}
		defer st.teardown()
	}
	if err := probeLayers(ctx, cfg, tr, st, own, values); err != nil {
		return nil, err
	}
	values["trace.spans"] = float64(len(tr.spans))

	path := cfg.outDir + "/trace." + def.name + ".json"
	if err := tr.write(path, cfg.header()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s: %d spans in %s; p50 %.4g ms over the %d operations without a span, %.4g ms over the %d with one\n",
		def.name, len(tr.spans), path, percentile(traced.latPlain, 0.5), len(traced.latPlain), percentile(traced.latTraced, 0.5), len(traced.latTraced))
	if res.Metrics, err = label(cfg.spec.PerLayer, values); err != nil {
		return nil, err
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayHead sends the workload's first headOps requests through an
// in-process serve.Service configured like the server's, on an engine that
// keeps everything in memory, and demands the server's releases bit for bit.
// On the spill workload this is the check that spilling changes no release.
func replayHead(ctx context.Context, tr *tracer, t *serveTarget) error {
	eng := mapreduce.NewEngine()
	defer eng.Close()
	svc, err := t.ref.service(eng, t.cfg.tmpDir+"/replay-ledger.json")
	if err != nil {
		return err
	}
	defer svc.Close()
	for i, want := range t.head {
		if want == nil {
			return fmt.Errorf("operation %d never completed on the server", i)
		}
		id := tr.start("serve.Service.Query", 0, int64(i))
		rel, serr := svc.Query(ctx, t.request(i))
		tr.end(id)
		if serr != nil {
			return fmt.Errorf("operation %d: %w", i, serr)
		}
		if !sameBits(rel.Output, want) {
			return fmt.Errorf("operation %d: server released %v, in-process replay %v", i, want, rel.Output)
		}
	}
	return nil
}

// probeLayers runs the whole probe suite against st's server and data, on
// engines budgeted like the workload's.
func probeLayers(ctx context.Context, cfg *config, tr *tracer, st *serveTarget, own []opKind, out map[string]float64) error {
	p := &prober{ctx: ctx, tr: tr, out: out, seed: cfg.seed}
	eng := mapreduce.NewEngine(mapreduce.WithMemoryBudget(st.def.spillBudget))
	defer eng.Close()
	svc, err := st.ref.service(eng, cfg.tmpDir+"/probe-ledger.json")
	if err != nil {
		return err
	}
	defer svc.Close()

	steps := []func() error{
		p.probeHost,
		func() error { return p.probeServing(st.srv, svc, st.ref) },
		func() error { return p.probeRelease(svc, eng, st.ref, own) },
		func() error { return p.probeSQL(eng, st.ref) },
		func() error { p.probeColbatch(); return nil },
		// Two synthetic pairs per lineitem: 200 000 at the default size, few
		// enough in the smoke test to keep it short.
		func() error { return p.probeEngine(2 * cfg.sz.lineitems) },
		func() error { return p.probePaper(eng, st.ref) },
		p.probeJobgraph,
		p.probeStats,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
	}
	return nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"upa/internal/core"
	"upa/internal/mapreduce"
	"upa/internal/queries"
	"upa/internal/serve"
	"upa/internal/sql"
)

// headOps is how many of a workload's first operations are kept for the
// exact-repeat checks: their relative error feeds dp.rel_err_p50 and the
// traced pass replays them in-process and demands bit-identical outputs.
const headOps = 8

// warmBase, times the cycle length, offsets the indices of set-up operations:
// they keep their slot and their seeds never collide with a measured
// operation's.
const warmBase = 1 << 40

// centred is the accuracy check on a kind's releases. One release is the
// exact answer plus Laplace noise whose scale is not public, so no single
// release can be judged; but the noise is symmetric, so the releases of a run
// must be centred on the exact answer to within their own spread. The check is
// free of any scale: it holds at every data size and ε, and it fails a count
// that is wrong by more than the noise the mechanism itself adds.
type centred struct {
	exact    []float64
	released [][]float64
}

// centredMin is the sample size below which the check is skipped: the median
// of fewer releases strays beyond their interquartile range too often.
const centredMin = 20

func (c *centred) verify(kind string) error {
	if len(c.released) < centredMin {
		return nil
	}
	for d, exact := range c.exact {
		coord := make([]float64, len(c.released))
		for i, r := range c.released {
			coord[i] = r[d]
		}
		tol := percentile(coord, 0.75) - percentile(coord, 0.25)
		if tol == 0 { // no noise at all: the inferred range collapsed to a point
			tol = 1 + 1e-3*math.Abs(exact)
		}
		if off := math.Abs(median(coord) - exact); off > tol {
			return fmt.Errorf("%d releases of %s have median %v in coordinate %d, %v away from the exact %v; their interquartile range is %v",
				len(coord), kind, median(coord), d, off, exact, tol)
		}
	}
	return nil
}

// opKind is one shape of operation. A workload deals its operations
// round-robin over a cycle of slots, each of one kind.
type opKind struct {
	name      string // label in logs and traces
	planName  string // canned plan, or
	planJSON  string // ad-hoc wire plan
	protected string
}

// workloadDef is one entry of the catalogue; BENCHMARK.json carries the
// one-line reason each exists, benchmark/README.md the long form.
type workloadDef struct {
	name        string
	spillBudget int64  // the server's -spillbudget; negative: unlimited
	sequence    uint64 // label of the request sequence (spill replays join's)
	hit         bool   // every measured request is a release-cache hit
}

var (
	scanKinds = []opKind{{name: "tpch1", planName: "tpch1", protected: "lineitem"}}
	joinKinds = []opKind{
		{name: "tpch4_orders", planName: "tpch4", protected: "orders"},
		{name: "tpch13_orders", planName: "tpch13", protected: "orders"},
		{name: "tpch13_customer", planName: "tpch13", protected: "customer"},
	}
	namedKinds = append(append([]opKind(nil), scanKinds...), joinKinds...)
)

var catalogue = []workloadDef{
	{name: "serve_miss_scan", spillBudget: -1, sequence: 1},
	{name: "serve_miss_join", spillBudget: -1, sequence: 2},
	{name: "serve_miss_spill", spillBudget: 0, sequence: 2},
	{name: "serve_hit", spillBudget: -1, sequence: 4, hit: true},
	{name: "lib_paper9", spillBudget: -1, sequence: 5},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range catalogue {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// counters are cumulative layer counts, keyed by the per-layer metric they
// feed. The traced pass divides their growth over the measured segments by
// the operations completed.
type counters map[string]float64

func (c counters) minus(o counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

func (c counters) plus(o counters) counters {
	out := make(counters, len(o))
	for k, v := range o {
		out[k] = c[k] + v
	}
	return out
}

// engineCounters maps an engine snapshot onto the per-layer count names.
func engineCounters(m mapreduce.MetricsSnapshot) counters {
	return counters{
		"tasks": float64(m.TasksRun), "task_retries": float64(m.TaskRetries),
		"records_mapped": float64(m.RecordsMapped), "records_batched": float64(m.RecordsBatched),
		"batches": float64(m.BatchesProcessed), "shuffle_rounds": float64(m.ShuffleRounds),
		"records_shuffled": float64(m.RecordsShuffled), "pre_combine": float64(m.RecordsPreCombine),
		"post_combine": float64(m.RecordsPostCombine), "spilled_bytes": float64(m.SpilledBytes),
		"spill_reads": float64(m.SpillReads),
	}
}

// target is what a workload measures: checked DP operations, dealt over a
// cycle of slots.
type target interface {
	// setup brings the system to the state measurement starts from; its wall
	// time is setup_s. teardown undoes it and reports what the run left
	// behind.
	setup(ctx context.Context) error
	teardown() error
	kinds() []string
	cycle() int
	kindOf(i int) int
	// do runs DP operation i, checks its result and returns its latency.
	do(ctx context.Context, tr *tracer, i int) (time.Duration, error)
	// pid is the process whose CPU and memory the operations cost.
	pid() int
	counters() (counters, error)
	// finish runs the after-workload checks (ledger conservation, no retries).
	finish() error
	// relErrs are the relative errors of the first headOps operations.
	relErrs() []float64
}

// slot is one position of a serve workload's cycle.
type slot struct {
	kind  int
	k     opKind
	exact float64
	// seed is fixed on hit workloads (the slot is one cache key) and drawn
	// per operation on miss workloads.
	seed uint64
}

// serveTarget drives POST /query of a upa-server subprocess.
type serveTarget struct {
	def    workloadDef
	cfg    *config
	ref    *reference
	names  []string
	slots  []slot
	srv    *serverProc
	tmp    string // the current server's private TMPDIR
	setups int

	misses int         // releases charged on the current server
	filled [][]float64 // hit workload: each slot's release as first served
	byKind []centred   // miss workloads: every measured release
	head   [headOps][]float64
	errs   []float64
}

// newServeTarget resolves the workload's slots on ref and computes their
// exact answers with sql.ExecuteCount, the non-private evaluation.
func newServeTarget(cfg *config, def workloadDef, ref *reference) (*serveTarget, error) {
	t := &serveTarget{def: def, cfg: cfg, ref: ref}
	eng := mapreduce.NewEngine()
	defer eng.Close()
	var kinds []opKind
	switch {
	case def.hit:
		kinds = hitKinds(cfg.seed, ref)
		t.names = []string{"adhoc_orders", "adhoc_customer"}
	case def.name == "serve_miss_scan":
		kinds = scanKinds
	default:
		kinds = joinKinds
	}
	for i, k := range kinds {
		plan, err := ref.plan(k)
		if err != nil {
			return nil, err
		}
		exact, err := sql.ExecuteCount(eng, plan)
		if err != nil {
			return nil, fmt.Errorf("exact answer of %s: %w", k.name, err)
		}
		s := slot{kind: i, k: k, exact: float64(exact)}
		if def.hit {
			s.kind = i % 2
			s.seed = mix(cfg.seed, def.sequence, uint64(i/(len(kinds)/2)))
		} else {
			t.names = append(t.names, k.name)
			t.byKind = append(t.byKind, centred{exact: []float64{s.exact}})
		}
		t.slots = append(t.slots, s)
	}
	return t, nil
}

// hitKinds builds the 64 cache keys of serve_hit: 16 plan constants on each
// of two tables, each under two seeds. Constants step by more than their
// seed-drawn jitter, so the 64 keys are distinct by construction.
func hitKinds(seed uint64, ref *reference) []opKind {
	const count = `{"op":"aggregate","aggs":[{"name":"n","func":"count"}],"input":{"op":"filter","pred":{"op":"lt","left":{"col":"%s"},"right":{"int":%d}},"input":{"op":"scan","table":"%s"}}}`
	custStep := max(len(ref.w.DB.Customers)/17, 1)
	kinds := make([]opKind, 64)
	for j := range kinds {
		c := j / 2 % 16
		jitter := mix(seed, 3, uint64(j%32))
		if j%2 == 0 {
			bound := 300 + (c+1)*120 + int(jitter%120)
			kinds[j] = opKind{name: "adhoc_orders", planJSON: fmt.Sprintf(count, "o_orderdate", bound, "orders"), protected: "orders"}
		} else {
			bound := (c+1)*custStep + int(jitter%uint64(custStep))
			kinds[j] = opKind{name: "adhoc_customer", planJSON: fmt.Sprintf(count, "c_custkey", bound, "customer"), protected: "customer"}
		}
	}
	return kinds
}

func (t *serveTarget) kinds() []string  { return t.names }
func (t *serveTarget) cycle() int       { return len(t.slots) }
func (t *serveTarget) kindOf(i int) int { return t.slots[i%len(t.slots)].kind }
func (t *serveTarget) pid() int         { return t.srv.pid() }

// request is operation i as the wire and the in-process service both take it.
func (t *serveTarget) request(i int) serve.Request {
	s := t.slots[i%len(t.slots)]
	req := serve.Request{Tenant: tenant, User: user, PlanName: s.k.planName, Protected: s.k.protected, Seed: s.seed}
	if s.k.planJSON != "" {
		req.Plan = json.RawMessage(s.k.planJSON)
	}
	if !t.def.hit {
		req.Seed = mix(t.cfg.seed, t.def.sequence, uint64(i))
	}
	return req
}

func (t *serveTarget) setup(ctx context.Context) error {
	t.setups++
	t.tmp = t.cfg.tmpDir + "/server" + strconv.Itoa(t.setups)
	if err := os.MkdirAll(t.tmp, 0o755); err != nil {
		return err
	}
	srv, err := startServer(ctx, t.cfg.serverBin, t.cfg.sz, t.cfg.seed, t.def.spillBudget,
		t.tmp, t.cfg.outDir+"/server."+t.def.name+".stderr")
	if err != nil {
		return err
	}
	t.srv = srv
	t.misses = 0
	t.filled = make([][]float64, len(t.slots))
	// Warm-up: one release of every slot. On the hit workload this is the
	// cache fill, so it is served as a miss and remembered.
	for j := range t.slots {
		i := j
		if !t.def.hit {
			i += warmBase * len(t.slots)
		}
		reply, _, err := t.post(nil, i)
		if err != nil {
			return fmt.Errorf("warm-up of %s: %w", t.slots[j].k.name, err)
		}
		if err := t.checkMiss(reply); err != nil {
			return fmt.Errorf("warm-up of %s: %w", t.slots[j].k.name, err)
		}
		t.filled[j] = reply.Output
	}
	return nil
}

// post sends operation i and times the round trip (request encoding and
// reply checks excluded).
func (t *serveTarget) post(tr *tracer, i int) (queryReply, time.Duration, error) {
	body, err := json.Marshal(t.request(i))
	if err != nil {
		return queryReply{}, 0, err
	}
	id := tr.start("http POST /query", 0, int64(i))
	start := time.Now()
	reply, err := t.srv.postQuery(body)
	elapsed := time.Since(start)
	tr.end(id)
	return reply, elapsed, err
}

// checkMiss is the per-reply check of a release that had to be computed: it
// is charged ε, not cached, and one finite number.
func (t *serveTarget) checkMiss(reply queryReply) error {
	t.misses++
	if reply.Cached || reply.Charged != epsilon {
		return fmt.Errorf("miss replied cached=%v charged=%v, want false and %v", reply.Cached, reply.Charged, epsilon)
	}
	if len(reply.Output) != 1 || !finite(reply.Output) {
		return fmt.Errorf("release %v is not one finite number", reply.Output)
	}
	return nil
}

func (t *serveTarget) do(_ context.Context, tr *tracer, i int) (time.Duration, error) {
	reply, elapsed, err := t.post(tr, i)
	if err != nil {
		return 0, err
	}
	s := t.slots[i%len(t.slots)]
	if t.def.hit {
		if !reply.Cached || reply.Charged != 0 {
			return 0, fmt.Errorf("hit replied cached=%v charged=%v, want true and 0", reply.Cached, reply.Charged)
		}
		if !sameBits(reply.Output, t.filled[i%len(t.slots)]) {
			return 0, fmt.Errorf("cached release %v differs from the one first served %v", reply.Output, t.filled[i%len(t.slots)])
		}
	} else if err := t.checkMiss(reply); err != nil {
		return 0, err
	}
	if !t.def.hit {
		t.byKind[s.kind].released = append(t.byKind[s.kind].released, reply.Output)
	}
	if i < headOps {
		t.head[i] = reply.Output
		t.errs = append(t.errs, relErr(reply.Output, []float64{s.exact}))
	}
	return elapsed, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (t *serveTarget) counters() (counters, error) {
	var m serverCounters
	if err := t.srv.getJSON("/metrics", &m); err != nil {
		return nil, err
	}
	c := counters{
		"tasks": m.TasksRun, "task_retries": m.TaskRetries, "records_mapped": m.RecordsMapped,
		"records_batched": m.RecordsBatched, "batches": m.BatchesProcessed,
		"shuffle_rounds": m.ShuffleRounds, "records_shuffled": m.RecordsShuffled,
		"pre_combine": m.RecordsPreCombine, "post_combine": m.RecordsPostCombine,
		"spilled_bytes": m.SpilledBytes, "spill_reads": m.SpillReads,
		"admitted": 0, "cache_hits": 0, "shed": 0, "failed": 0, "eps": 0,
	}
	for _, row := range m.Tenants {
		if row.Tenant == tenant {
			c["admitted"], c["cache_hits"], c["shed"] = row.Admitted, row.CacheHits, row.ShedQueue
			c["failed"], c["eps"] = row.Failed, row.EpsilonSpent
		}
	}
	return c, nil
}

// finish checks what must hold after a workload: the ledger spent exactly ε
// per miss, nothing was shed, failed or retried, and the spill workload did
// spill.
func (t *serveTarget) finish() error {
	c, err := t.counters()
	if err != nil {
		return err
	}
	var budget struct {
		Tenants []struct {
			Tenant string  `json:"tenant"`
			Spent  float64 `json:"spent"`
		} `json:"tenants"`
	}
	if err := t.srv.getJSON("/budget", &budget); err != nil {
		return err
	}
	misses := float64(t.misses)
	if len(budget.Tenants) != 1 || math.Abs(budget.Tenants[0].Spent-misses*epsilon) > 1e-9*math.Max(misses, 1) {
		return fmt.Errorf("ledger reports %+v after %v misses at ε=%v", budget.Tenants, misses, epsilon)
	}
	if c["admitted"] != misses {
		return fmt.Errorf("server admitted %v releases, benchmark counted %v misses", c["admitted"], misses)
	}
	if c["task_retries"] != 0 || c["failed"] != 0 || c["shed"] != 0 {
		return fmt.Errorf("server reports taskRetries=%v failed=%v shedQueue=%v, want all 0", c["task_retries"], c["failed"], c["shed"])
	}
	if spilled := c["spilled_bytes"] > 0; spilled != (t.def.spillBudget >= 0) {
		return fmt.Errorf("server spilled %v bytes under -spillbudget %d", c["spilled_bytes"], t.def.spillBudget)
	}
	for k := range t.byKind {
		if err := t.byKind[k].verify(t.names[k]); err != nil {
			return err
		}
	}
	return nil
}

func (t *serveTarget) relErrs() []float64 { return t.errs }

// teardown drains the server and checks that it removed its spill directory.
func (t *serveTarget) teardown() error {
	if t.srv == nil {
		return nil
	}
	err := t.srv.stop()
	t.srv = nil
	if err != nil {
		return err
	}
	return noSpillDirs(t.tmp)
}

// noSpillDirs fails if an engine left an upa-spill-* directory in dir.
func noSpillDirs(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "upa-spill-") {
			return fmt.Errorf("spill directory %s/%s left behind", dir, e.Name())
		}
	}
	return nil
}

// paperTarget runs the paper's nine queries through the library: RunUPA on a
// fresh core.System per release, RunVanilla as the baseline, one engine.
type paperTarget struct {
	cfg     *config
	eng     *mapreduce.Engine
	runners []queries.Runner
	byKind  []centred
	eps     float64
	count   int
	errs    []float64
}

var paperQueries = []string{"TPCH1", "TPCH4", "TPCH13", "TPCH16", "TPCH21", "KMeans", "Linear Regression", "TPCH6", "TPCH11"}

// setup is data generation plus engine build, as the issue defines set-up for
// the library workload.
func (t *paperTarget) setup(context.Context) error {
	ref, err := buildReference(t.cfg.sz, t.cfg.seed)
	if err != nil {
		return err
	}
	return t.bind(ref)
}

// bind resolves the nine runners on ref and warms each with one non-private
// evaluation, whose output is the exact answer releases are compared to.
func (t *paperTarget) bind(ref *reference) error {
	t.eng = mapreduce.NewEngine()
	t.runners, t.byKind = nil, nil
	for _, name := range paperQueries {
		r, err := ref.w.ByName(name)
		if err != nil {
			return err
		}
		exact, err := r.RunVanilla(t.eng)
		if err != nil {
			return fmt.Errorf("exact answer of %s: %w", name, err)
		}
		t.runners = append(t.runners, r)
		t.byKind = append(t.byKind, centred{exact: exact})
	}
	return nil
}

func (t *paperTarget) teardown() error {
	if t.eng == nil {
		return nil
	}
	err := t.eng.Close()
	t.eng = nil
	return err
}

func (t *paperTarget) kinds() []string  { return paperQueries }
func (t *paperTarget) cycle() int       { return len(paperQueries) }
func (t *paperTarget) kindOf(i int) int { return i % len(paperQueries) }
func (t *paperTarget) pid() int         { return os.Getpid() }

func (t *paperTarget) do(_ context.Context, tr *tracer, i int) (time.Duration, error) {
	kind := t.kindOf(i)
	ccfg := core.DefaultConfig()
	ccfg.SampleSize = t.cfg.sz.sampleSize
	ccfg.Epsilon = epsilon
	ccfg.Seed = mix(t.cfg.seed, 5, uint64(i)) | 1 // core rejects a zero seed
	id := tr.start("queries.Runner.RunUPA "+paperQueries[kind], 0, int64(i))
	start := time.Now()
	// A fresh System per release: no RANGE ENFORCER history carries over, so
	// latency does not drift with the number of releases.
	sys, err := core.NewSystem(t.eng, ccfg)
	if err != nil {
		return 0, err
	}
	res, err := t.runners[kind].RunUPA(sys)
	elapsed := time.Since(start)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if want := epsilon * float64(len(res.Output)); res.EffectiveEpsilon != epsilon || math.Abs(sys.EpsilonSpent()-want) > 1e-9 {
		return 0, fmt.Errorf("%s spent ε=%v at %v per coordinate, want %v at %v", paperQueries[kind], sys.EpsilonSpent(), res.EffectiveEpsilon, want, epsilon)
	}
	exact := t.byKind[kind].exact
	if len(res.Output) != len(exact) || !finite(res.Output) {
		return 0, fmt.Errorf("%s released %v, want %d finite numbers", paperQueries[kind], res.Output, len(exact))
	}
	t.eps += sys.EpsilonSpent()
	t.count++
	t.byKind[kind].released = append(t.byKind[kind].released, res.Output)
	if i < len(paperQueries) {
		t.errs = append(t.errs, relErr(res.Output, exact))
	}
	return elapsed, nil
}

func (t *paperTarget) counters() (counters, error) {
	c := engineCounters(t.eng.Metrics())
	c["admitted"], c["eps"] = float64(t.count), t.eps
	c["cache_hits"], c["shed"], c["failed"] = 0, 0, 0
	return c, nil
}

func (t *paperTarget) finish() error {
	if m := t.eng.Metrics(); m.TaskRetries != 0 || m.TaskFaults != 0 {
		return fmt.Errorf("engine reports %d task retries and %d faults, want 0", m.TaskRetries, m.TaskFaults)
	}
	for k := range t.byKind {
		if err := t.byKind[k].verify(paperQueries[k]); err != nil {
			return err
		}
	}
	return nil
}

func (t *paperTarget) relErrs() []float64 { return t.errs }

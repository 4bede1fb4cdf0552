// Command upa-server exposes UPA as a small HTTP service over a generated
// synthetic warehouse: analysts POST release requests and receive noisy,
// iDP-protected answers; the RANGE ENFORCER history persists across
// restarts via a state file so differencing attacks cannot be laundered
// through a service bounce.
//
// Endpoints:
//
//	GET  /queries   list the available queries
//	POST /release   {"query": "TPCH6"} -> one iDP release
//	POST /query     multi-tenant DP query service: SQL plans (named or
//	                ad-hoc JSON ASTs) under per-tenant/per-user ε ledgers,
//	                admission control and a release cache
//	GET  /budget    every tenant's ε budget, spend and remaining headroom
//	GET  /metrics   engine activity counters, including fault-recovery
//	                (retries, backoff, deadlines, lost slots) and per-tenant
//	                serving counters
//	GET  /history   RANGE ENFORCER status
//	GET  /healthz   liveness: uptime, releases served, privacy budget spent
//	GET  /jobs      recent releases' stage DAGs: per-stage spans (attempts,
//	                retries, absorbed faults) plus simulated cluster cost
//	                and critical path
//
// The process drains gracefully on SIGINT/SIGTERM: in-flight queries get a
// deadline to finish, then the serving ledger journal is compacted into its
// snapshot and the enforcer state is persisted.
//
// Usage:
//
//	upa-server -addr :8080 -lineitems 20000 -state enforcer.json \
//	  -tenants acme:5:1,beta:2:0.5 -servestate ledger.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"upa/internal/bench"
	"upa/internal/cluster"
	"upa/internal/core"
	"upa/internal/lifesci"
	"upa/internal/mapreduce"
	"upa/internal/queries"
	"upa/internal/serve"
	"upa/internal/sql"
	"upa/internal/tpch"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "upa-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("upa-server", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		lineitems   = fs.Int("lineitems", 20000, "TPC-H lineitem rows")
		lsRecords   = fs.Int("lsrecords", 20000, "life-science records")
		skew        = fs.Float64("skew", 0.2, "TPC-H join-key skew")
		seed        = fs.Uint64("seed", 1, "generator and system seed")
		sampleSize  = fs.Int("n", 1000, "UPA differing-record sample size")
		epsilon     = fs.Float64("epsilon", 0.1, "privacy budget per release")
		statePath   = fs.String("state", "", "path persisting the RANGE ENFORCER history (empty: in-memory only)")
		spillBudget = fs.Int64("spillbudget", -1, "engine in-memory materialization budget in bytes; past it partitions spill to temp files (negative: unlimited, 0: spill everything)")
		tenantSpec  = fs.String("tenants", "", "tenant registry as name:budget:userBudget,... (0 = unlimited; empty: one unlimited \"public\" tenant)")
		serveState  = fs.String("servestate", "", "path persisting the serving ε ledger and release cache (empty: in-memory only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tenants, err := parseTenants(*tenantSpec)
	if err != nil {
		return err
	}
	srv, err := newServer(serverConfig{
		Lineitems:      *lineitems,
		LSRecords:      *lsRecords,
		Skew:           *skew,
		Seed:           *seed,
		SampleSize:     *sampleSize,
		Epsilon:        *epsilon,
		StatePath:      *statePath,
		SpillBudget:    *spillBudget,
		Tenants:        tenants,
		ServeStatePath: *serveState,
	})
	if err != nil {
		return err
	}
	slog.Info("upa-server listening", slog.String("addr", *addr))
	httpServer := newHTTPServer(*addr, srv.routes())

	// Serve until SIGINT/SIGTERM, then drain: stop accepting, give in-flight
	// queries a deadline, and flush the serving ledger and enforcer state so
	// a bounce neither forgets ε spend nor re-randomizes cached releases.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	select {
	case err := <-errc:
		srv.close()
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	slog.Info("upa-server draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = httpServer.Shutdown(shutdownCtx)
	if cerr := srv.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Timeouts of the listening server. Request bodies are capped at 1 MiB, so
// reading one never needs long; the write timeout runs from the end of the
// request headers to the end of the reply, so it bounds the slowest release
// a client waits for; idle keep-alive connections are closed after a while.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the server that listens on addr and serves h.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// parseTenants parses the -tenants flag: comma-separated name:budget:userBudget
// triples, budget fields optional (missing or zero = unlimited).
func parseTenants(spec string) ([]serve.TenantSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []serve.TenantSpec
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if fields[0] == "" || len(fields) > 3 {
			return nil, fmt.Errorf("bad tenant spec %q (want name:budget:userBudget)", part)
		}
		t := serve.TenantSpec{Name: fields[0]}
		for i, dst := range []*float64{&t.Budget, &t.UserBudget} {
			if len(fields) > i+1 && fields[i+1] != "" {
				v, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("bad tenant spec %q: %v", part, err)
				}
				*dst = v
			}
		}
		out = append(out, t)
	}
	return out, nil
}

type serverConfig struct {
	Lineitems, LSRecords int
	Skew                 float64
	Seed                 uint64
	SampleSize           int
	Epsilon              float64
	StatePath            string
	// SpillBudget caps the engine's in-memory materialized partitions in
	// bytes; past it partitions spill to temp files (negative: unlimited,
	// zero: spill everything).
	SpillBudget int64
	// Tenants registers the serving layer's tenants (empty: one unlimited
	// "public" tenant); ServeStatePath roots its ledger/cache persistence.
	Tenants        []serve.TenantSpec
	ServeStatePath string
	// MaxConcurrent / PerTenantDepth override the admission controller's
	// defaults (zero keeps them).
	MaxConcurrent  int
	PerTenantDepth int
}

// jobLogCap bounds the job log: GET /jobs reports the most recent releases
// only, oldest evicted first.
const jobLogCap = 32

// server holds the workload and the long-lived UPA system.
type server struct {
	cfg   serverConfig
	w     *queries.Workload
	eng   *mapreduce.Engine
	sys   *core.System
	svc   *serve.Service
	model cluster.Model
	// started anchors /healthz uptime; releases counts successful releases.
	started  time.Time
	releases atomic.Uint64

	// releaseMu serializes persistence of the enforcer state with the
	// releases that mutate it.
	releaseMu sync.Mutex

	// jobsMu guards the ring of recent job records behind GET /jobs.
	jobsMu sync.Mutex
	jobs   []jobRecord
}

func newServer(cfg serverConfig) (*server, error) {
	w, err := queries.NewWorkload(
		tpch.Config{Lineitems: cfg.Lineitems, Skew: cfg.Skew, Seed: cfg.Seed},
		lifesci.Config{Records: cfg.LSRecords, Dims: 4, Clusters: 3, OutlierFrac: 0.01, Seed: cfg.Seed},
	)
	if err != nil {
		return nil, err
	}
	eng := mapreduce.NewEngine(mapreduce.WithMemoryBudget(cfg.SpillBudget))
	sysCfg := core.DefaultConfig()
	sysCfg.SampleSize = cfg.SampleSize
	sysCfg.Epsilon = cfg.Epsilon
	sysCfg.Seed = cfg.Seed
	sys, err := core.NewSystem(eng, sysCfg)
	if err != nil {
		return nil, err
	}
	// The serving layer exposes the TPC-H relations to ad-hoc plans and the
	// canned counting plans by name. Each relation is converted once and
	// every plan — canned or ad-hoc — scans that one *sql.ScanPlan: plans
	// fingerprint identically across requests, and they share the relation's
	// rows and its columnar image instead of holding a copy per plan.
	rels := queries.NewRelations(w.DB)
	tables := map[string]*sql.ScanPlan{
		"lineitem": rels.Lineitem,
		"orders":   rels.Orders,
		"customer": rels.Customer,
	}
	named := make(map[string]sql.Plan)
	for _, name := range []string{"tpch1", "tpch1full", "tpch4", "tpch6", "tpch13"} {
		plan, err := rels.Plan(name)
		if err != nil {
			return nil, err
		}
		named[name] = plan
	}
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = []serve.TenantSpec{{Name: "public"}}
	}
	svc, err := serve.NewService(serve.Config{
		Engine: eng,
		Tables: tables,
		NamedPlan: func(name string) (sql.Plan, error) {
			plan, ok := named[strings.ToLower(name)]
			if !ok {
				return nil, fmt.Errorf("no canned plan (have tpch1, tpch1full, tpch4, tpch6, tpch13)")
			}
			return plan, nil
		},
		SampleSize:     cfg.SampleSize,
		DefaultEpsilon: cfg.Epsilon,
		MaxConcurrent:  cfg.MaxConcurrent,
		PerTenantDepth: cfg.PerTenantDepth,
		StatePath:      cfg.ServeStatePath,
	}, tenants)
	if err != nil {
		return nil, err
	}
	srv := &server{cfg: cfg, w: w, eng: eng, sys: sys, svc: svc, model: cluster.PaperTestbed(), started: time.Now()}
	if cfg.StatePath != "" {
		if err := srv.loadState(); err != nil {
			svc.Close()
			return nil, err
		}
	}
	return srv, nil
}

// close flushes everything a restart must not forget: the serving layer's ε
// ledger and release cache (journal compacted into its snapshot), then the
// RANGE ENFORCER history — and removes the engine's spill directory, which
// holds only recomputable intermediate state.
func (s *server) close() error {
	s.releaseMu.Lock()
	defer s.releaseMu.Unlock()
	err := s.svc.Close()
	if serr := s.saveState(); serr != nil && err == nil {
		err = serr
	}
	if eerr := s.eng.Close(); eerr != nil && err == nil {
		err = eerr
	}
	return err
}

func (s *server) loadState() error {
	f, err := os.Open(s.cfg.StatePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil // first boot
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return s.sys.Enforcer().Load(f)
}

func (s *server) saveState() error {
	if s.cfg.StatePath == "" {
		return nil
	}
	tmp := s.cfg.StatePath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.sys.Enforcer().Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, s.cfg.StatePath)
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /queries", s.handleQueries)
	mux.HandleFunc("POST /release", s.handleRelease)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /budget", s.handleBudget)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /history", s.handleHistory)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	return recoverPanics(slog.Default(), mux)
}

// recoverPanics answers a request whose handler panicked with 500 and a
// generic JSON error, and logs the method, path, panic value and stack to
// logger. Neither the panic value nor the stack reaches the client. Every
// handler writes its reply in one writeJSON call at its end, so a panic
// leaves the reply unwritten. http.ErrAbortHandler is re-raised: it asks
// net/http to drop the connection.
func recoverPanics(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(v)
			}
			logger.Error("http handler panic",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Any("panic", v),
				slog.String("stack", string(debug.Stack())))
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": "internal server error"})
		}()
		next.ServeHTTP(w, r)
	})
}

// jobStage is one stage of a job record: the span the stage reported plus
// the cluster model's price for it.
type jobStage struct {
	Stage           string   `json:"stage"`
	Deps            []string `json:"deps"`
	DurationUS      float64  `json:"durationUs"`
	Attempts        int      `json:"attempts"`
	Retries         int64    `json:"retries"`
	TaskFaults      int64    `json:"taskFaults"`
	BackoffUS       float64  `json:"backoffUs"`
	Records         int64    `json:"records"`
	ShuffledRecords int64    `json:"shuffledRecords"`
	ShuffleBytes    int64    `json:"shuffleBytes"`
	ReduceOps       int64    `json:"reduceOps"`
	CacheHits       int64    `json:"cacheHits"`
	SimUS           float64  `json:"simUs"`
	Critical        bool     `json:"critical"`
}

// jobRecord is one release's stage DAG as reported by GET /jobs.
type jobRecord struct {
	ID              uint64     `json:"id"`
	Query           string     `json:"query"`
	Stages          []jobStage `json:"stages"`
	CriticalPath    []string   `json:"criticalPath"`
	SimSequentialUS float64    `json:"simSequentialUs"`
	SimPipelinedUS  float64    `json:"simPipelinedUs"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// recordJob prices a release's spans and appends the job record, evicting
// the oldest past jobLogCap.
func (s *server) recordJob(res *core.Result) {
	rec := jobRecord{
		ID:           res.Release,
		Query:        res.Query,
		Stages:       make([]jobStage, 0, len(res.Spans)),
		CriticalPath: []string{},
	}
	plan, err := s.model.PricePlan(res.Spans)
	if err != nil {
		// Pricing cannot fail on spans the scheduler produced; if it ever
		// does, keep the unpriced spans rather than dropping the record.
		slog.Error("price job plan", slog.Any("error", err))
		plan = cluster.PlanCost{Stages: make([]cluster.StageCost, len(res.Spans))}
	}
	critical := make(map[string]bool, len(plan.CriticalPath))
	for _, name := range plan.CriticalPath {
		critical[name] = true
	}
	rec.CriticalPath = append(rec.CriticalPath, plan.CriticalPath...)
	rec.SimSequentialUS = micros(plan.Sequential)
	rec.SimPipelinedUS = micros(plan.Total)
	for i, span := range res.Spans {
		deps := span.Deps
		if deps == nil {
			deps = []string{} // keep "deps" an array, never null, in JSON
		}
		rec.Stages = append(rec.Stages, jobStage{
			Stage:           span.Stage,
			Deps:            deps,
			DurationUS:      micros(span.Duration()),
			Attempts:        span.Attempts,
			Retries:         span.Retries,
			TaskFaults:      span.TaskFaults,
			BackoffUS:       micros(time.Duration(span.BackoffNanos)),
			Records:         span.Records,
			ShuffledRecords: span.ShuffledRecords,
			ShuffleBytes:    span.ShuffleBytes,
			ReduceOps:       span.ReduceOps,
			CacheHits:       span.CacheHits,
			SimUS:           micros(plan.Stages[i].Cost.Total()),
			Critical:        critical[span.Stage],
		})
	}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs = append(s.jobs, rec)
	if len(s.jobs) > jobLogCap {
		s.jobs = append(s.jobs[:0], s.jobs[len(s.jobs)-jobLogCap:]...)
	}
}

func (s *server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.jobsMu.Lock()
	// Newest first, so analysts see their latest release on top.
	jobs := make([]jobRecord, 0, len(s.jobs))
	for i := len(s.jobs) - 1; i >= 0; i-- {
		jobs = append(jobs, s.jobs[i])
	}
	s.jobsMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *server) handleQueries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"queries": bench.QueryNames()})
}

// releaseRequest is the body of POST /release.
type releaseRequest struct {
	Query string `json:"query"`
}

// releaseResponse is the analyst-facing release: only the noisy output and
// public metadata — never the raw output, and (since the dpflow analyzer
// landed) never the inferred sensitivity either: it is a data-dependent
// pre-noise value, so serving it would undo the mechanism's guarantee.
type releaseResponse struct {
	Query           string    `json:"query"`
	Output          []float64 `json:"output"`
	SampleSize      int       `json:"sampleSize"`
	AttackSuspected bool      `json:"attackSuspected"`
	RemovedRecords  int       `json:"removedRecords"`
	Epsilon         float64   `json:"epsilon"`
}

func (s *server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !decodeBody(w, r, 1<<16, &req) {
		return
	}
	runner, err := s.w.ByName(req.Query)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
		return
	}
	s.releaseMu.Lock()
	defer s.releaseMu.Unlock()
	res, err := runner.RunUPA(s.sys)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	if err := s.saveState(); err != nil {
		// The release already happened; losing persistence is a server
		// fault worth surfacing loudly, but the noisy answer is safe to
		// return.
		slog.Error("persist enforcer state", slog.Any("error", err))
	}
	s.releases.Add(1)
	s.recordJob(res)
	writeJSON(w, http.StatusOK, releaseResponse{
		Query:           res.Query,
		Output:          res.Output,
		SampleSize:      res.SampleSize,
		AttackSuspected: res.AttackSuspected,
		RemovedRecords:  res.RemovedRecords,
		Epsilon:         res.EffectiveEpsilon,
	})
}

// decodeBody decodes the request's JSON body into v, reading at most limit
// bytes. An oversized body is answered 413 and a malformed one 400; it
// reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
			"error": fmt.Sprintf("request body exceeds %d bytes", limit)})
	} else {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "malformed request body"})
	}
	return false
}

// handleQuery is the multi-tenant DP query endpoint: the serving layer
// decides admission (budget, load) and caching before anything computes.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req serve.Request
	if !decodeBody(w, r, 1<<20, &req) {
		return
	}
	rel, serr := s.svc.Query(r.Context(), req)
	if serr != nil {
		if serr.RetryAfterSeconds > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(serr.RetryAfterSeconds))
		}
		writeJSON(w, serr.Status, map[string]any{"error": serr.Message})
		return
	}
	writeJSON(w, http.StatusOK, rel)
}

// handleBudget reports every tenant's ε ledger state.
func (s *server) handleBudget(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"tenants":   s.svc.Report(),
		"persisted": s.cfg.ServeStatePath != "",
	})
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.eng.Metrics()
	cacheLen, cacheHits, cacheMisses := s.svc.CacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"tenants": s.svc.Metrics(),
		"releaseCache": map[string]any{
			"entries": cacheLen,
			"hits":    cacheHits,
			"misses":  cacheMisses,
		},
		"tasksRun":                 m.TasksRun,
		"recordsMapped":            m.RecordsMapped,
		"recordsBatched":           m.RecordsBatched,
		"batchesProcessed":         m.BatchesProcessed,
		"reduceOps":                m.ReduceOps,
		"shuffleRounds":            m.ShuffleRounds,
		"recordsShuffled":          m.RecordsShuffled,
		"recordsPreCombine":        m.RecordsPreCombine,
		"recordsPostCombine":       m.RecordsPostCombine,
		"recordsCombinedMapSide":   m.RecordsCombinedMapSide,
		"cacheHitRate":             m.CacheHitRate(),
		"taskAttempts":             m.TaskAttempts,
		"taskFaults":               m.TaskFaults,
		"taskRetries":              m.TaskRetries,
		"shuffleRetries":           m.ShuffleRetries,
		"backoffUs":                micros(time.Duration(m.BackoffNanos)),
		"deadlinesExceeded":        m.DeadlinesExceeded,
		"stragglersInjected":       m.StragglersInjected,
		"slotsLost":                m.SlotsLost,
		"memoryBudget":             s.eng.MemoryBudget(),
		"spilledBytes":             m.SpilledBytes,
		"spillFiles":               m.SpillFiles,
		"spillReads":               m.SpillReads,
		"spillCorruptionsDetected": m.SpillCorruptionsDetected,
		"spillRecomputes":          m.SpillRecomputes,
		"spillWriteRetries":        m.SpillWriteRetries,
		"spillFallbacksInMemory":   m.SpillFallbacksInMemory,
	})
}

// handleHealthz is the liveness probe: process status plus the counters an
// operator checks first — uptime, releases served, privacy budget spent, and
// whether fault recovery has been active.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m := s.eng.Metrics()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.started).Seconds(),
		"releases":      s.releases.Load(),
		"epsilonSpent":  s.sys.EpsilonSpent(),
		"workers":       s.eng.Workers(),
		"taskRetries":   m.TaskRetries,
		"taskFaults":    m.TaskFaults,
	})
}

func (s *server) handleHistory(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"releases":  s.sys.Enforcer().HistoryLen(),
		"persisted": s.cfg.StatePath != "",
	})
}

// writeJSON serializes v onto the wire. Everything that passes through
// here is analyst-visible, so dpflow treats every argument as a sink.
//
//upa:dpsink
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("encode response", slog.Any("error", err))
	}
}

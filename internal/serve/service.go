package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"sync"

	"upa/internal/core"
	"upa/internal/jobgraph"
	"upa/internal/mapreduce"
	"upa/internal/sql"
)

// Error is an admission/serving failure with its HTTP mapping attached.
// RetryAfterSeconds > 0 marks the failure as transient-from-the-client's-view
// (queue full, budget could be raised) and becomes a Retry-After header.
type Error struct {
	Status            int
	Message           string
	RetryAfterSeconds int
}

func (e *Error) Error() string { return e.Message }

// httpError builds a non-retryable serving error.
func httpError(status int, format string, args ...any) *Error {
	return &Error{Status: status, Message: fmt.Sprintf(format, args...)}
}

// TenantSpec declares one tenant at service construction: its total ε budget
// and the per-user ε cap (zero = unlimited at that level).
type TenantSpec struct {
	Name       string  `json:"name"`
	Budget     float64 `json:"budget"`
	UserBudget float64 `json:"userBudget"`
}

// Config parameterizes the service. Zero values pick serving defaults.
type Config struct {
	// Engine executes influence plans and releases. Required.
	Engine *mapreduce.Engine
	// Tables is the registry of base relations ad-hoc plans may scan.
	Tables map[string]*sql.ScanPlan
	// NamedPlan, when non-nil, resolves a request's plan name to a plan —
	// the canned-query path. Unknown names must error.
	NamedPlan func(name string) (sql.Plan, error)
	// SampleSize is n for sensitivity sampling (default 200).
	SampleSize int
	// DefaultEpsilon is charged when a request leaves ε unset (default 0.1,
	// the paper's evaluation setting).
	DefaultEpsilon float64
	// MaxConcurrent bounds queries computing at once (default
	// Engine.Workers()); PerTenantDepth bounds one tenant's queued+running
	// occupancy (default 4) — past it, requests shed with 429.
	MaxConcurrent  int
	PerTenantDepth int
	// CacheCap bounds the release cache (default 256 entries).
	CacheCap int
	// RetryAfterSeconds is the Retry-After hint on shed/exhausted responses
	// (default 1).
	RetryAfterSeconds int
	// StatePath roots the ledger/cache persistence pair (snapshot at
	// StatePath, journal at StatePath+".journal"). Empty disables
	// persistence: state lives and dies with the process.
	StatePath string
}

// tenantMetrics is one tenant's serving counters. All fields move under
// Service.mu.
type tenantMetrics struct {
	admitted       uint64
	cacheHits      uint64
	shedQueue      uint64
	rejectedBudget uint64
	failed         uint64
	epsilonSpent   float64
}

// TenantMetrics is the exported snapshot of one tenant's serving counters.
type TenantMetrics struct {
	Tenant         string  `json:"tenant"`
	Admitted       uint64  `json:"admitted"`
	CacheHits      uint64  `json:"cacheHits"`
	ShedQueue      uint64  `json:"shedQueue"`
	RejectedBudget uint64  `json:"rejectedBudget"`
	Failed         uint64  `json:"failed"`
	EpsilonSpent   float64 `json:"epsilonSpent"`
}

// Service is the multi-tenant DP query service: one Service fronts one
// engine and one persistence root, and every query passes budget admission,
// concurrency admission and the release cache before any computation runs.
type Service struct {
	cfg    Config
	ledger *Ledger
	cache  *Cache
	adm    *admission
	store  *Store // nil when persistence is disabled

	mu      sync.Mutex
	metrics map[string]*tenantMetrics //upa:guardedby(mu)
}

// NewService builds the service, replays any persisted state at
// cfg.StatePath, and registers tenants (idempotently — replayed
// registrations with identical budgets journal nothing).
func NewService(cfg Config, tenants []TenantSpec) (*Service, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: Config.Engine is required")
	}
	if cfg.SampleSize < 1 {
		cfg.SampleSize = 200
	}
	if cfg.DefaultEpsilon <= 0 {
		cfg.DefaultEpsilon = 0.1
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = cfg.Engine.Workers()
	}
	if cfg.PerTenantDepth < 1 {
		cfg.PerTenantDepth = 4
	}
	if cfg.CacheCap < 1 {
		cfg.CacheCap = 256
	}
	if cfg.RetryAfterSeconds < 1 {
		cfg.RetryAfterSeconds = 1
	}

	s := &Service{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheCap),
		adm:     newAdmission(cfg.MaxConcurrent, cfg.PerTenantDepth),
		metrics: make(map[string]*tenantMetrics),
	}

	var persist func(entry) error
	if cfg.StatePath != "" {
		store, replay, err := OpenStore(cfg.StatePath)
		if err != nil {
			return nil, err
		}
		s.store = store
		persist = store.Append
		s.ledger = NewLedger(nil) // replay must not re-journal
		for _, e := range replay {
			switch e.Kind {
			case entryRelease:
				if e.Release != nil {
					s.cache.replay(e.Key, *e.Release)
				}
			default:
				s.ledger.replayEntry(e)
			}
		}
		// The sink is installed through setPersist (which locks) rather than
		// by assigning the field: replay ran single-goroutine, but Register
		// below reads persist under the ledger mutex, and the unlocked
		// assignment this replaced was an unsynchronized publish
		// (lockdiscipline's first real catch on this tree).
		s.ledger.setPersist(persist)
	} else {
		s.ledger = NewLedger(nil)
	}

	for _, t := range tenants {
		if err := s.ledger.Register(t.Name, t.Budget, t.UserBudget); err != nil {
			if s.store != nil {
				s.store.Close()
			}
			return nil, err
		}
	}
	return s, nil
}

// Request is one POST /query, decoded. Exactly one of PlanName (a canned
// plan resolved via Config.NamedPlan) or Plan (an ad-hoc wire-form plan over
// Config.Tables) names the computation.
type Request struct {
	Tenant string `json:"tenant"`
	User   string `json:"user"`
	// PlanName or Plan (exactly one).
	PlanName string          `json:"plan,omitempty"`
	Plan     json.RawMessage `json:"planJSON,omitempty"`
	// Protected names the table whose records the release protects;
	// defaults to the plan's only scanned table.
	Protected string `json:"protected,omitempty"`
	// Epsilon is the ε this release charges (0 = server default). Seed
	// completes the cache key: same (plan, protected, ε, seed) is
	// byte-identical, cached, and charged once; a fresh seed is a fresh
	// release and a fresh charge.
	Epsilon float64 `json:"epsilon,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
}

// Release is the response to one admitted query.
type Release struct {
	Tenant      string  `json:"tenant"`
	User        string  `json:"user"`
	Query       string  `json:"query"`
	Fingerprint string  `json:"fingerprint"`
	Epsilon     float64 `json:"epsilon"`
	Seed        uint64  `json:"seed"`
	// Cached reports a release-cache hit; Charged is the ε THIS request
	// spent (zero on every hit).
	Cached  bool    `json:"cached"`
	Charged float64 `json:"charged"`
	// Output is the noisy release; SampleSize the effective n it used.
	Output     []float64 `json:"output"`
	SampleSize int       `json:"sampleSize"`
	// Remaining headroom after this request; -1 = unlimited.
	TenantRemaining float64 `json:"tenantRemaining"`
	UserRemaining   float64 `json:"userRemaining"`
}

// Query serves one request end to end: validate → fingerprint → cache →
// admission → charge → compute → publish. Rejections spend zero ε and
// arrive before any plan executes.
func (s *Service) Query(ctx context.Context, req Request) (*Release, *Error) {
	if req.Tenant == "" || !s.ledger.Has(req.Tenant) {
		return nil, httpError(http.StatusNotFound, "unknown tenant %q", req.Tenant)
	}
	if req.User == "" {
		return nil, httpError(http.StatusBadRequest, "request must name a user")
	}
	eps := req.Epsilon
	if eps == 0 {
		eps = s.cfg.DefaultEpsilon
	}
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, httpError(http.StatusBadRequest, "epsilon must be positive and finite, got %v", req.Epsilon)
	}

	plan, queryName, herr := s.resolvePlan(req)
	if herr != nil {
		return nil, herr
	}
	protected := req.Protected
	if protected == "" {
		names := sql.TableNames(plan)
		if len(names) != 1 {
			return nil, httpError(http.StatusBadRequest,
				"plan scans %d tables %v; set \"protected\" to the one to protect", len(names), names)
		}
		protected = names[0]
	}
	// Structural validation only — nothing executes before admission.
	if err := sql.SupportsDPCount(plan, protected); err != nil {
		return nil, httpError(http.StatusBadRequest, "unsupported plan: %v", err)
	}

	fp := sql.Fingerprint(plan)
	key := CacheKey(fp, protected, eps, req.Seed)

	if rel, ok := s.cache.lookup(key); ok {
		s.bump(req.Tenant, func(m *tenantMetrics) { m.cacheHits++ })
		return s.decorate(req, rel, true, 0), nil
	}

	release, aerr := s.adm.acquire(ctx, req.Tenant, s.cfg.RetryAfterSeconds)
	if aerr != nil {
		s.bump(req.Tenant, func(m *tenantMetrics) { m.shedQueue++ })
		return nil, aerr
	}
	defer release()

	// Re-check the cache: an identical query may have published while this
	// one queued. Hitting now still spends nothing.
	if rel, ok := s.cache.lookup(key); ok {
		s.bump(req.Tenant, func(m *tenantMetrics) { m.cacheHits++ })
		return s.decorate(req, rel, true, 0), nil
	}

	return s.execute(ctx, req, plan, protected, queryName, fp, key, eps, req.Seed)
}

// resolvePlan turns the request's plan reference into a sql.Plan.
func (s *Service) resolvePlan(req Request) (sql.Plan, string, *Error) {
	switch {
	case req.PlanName != "" && len(req.Plan) > 0:
		return nil, "", httpError(http.StatusBadRequest, "set \"plan\" or \"planJSON\", not both")
	case req.PlanName != "":
		if s.cfg.NamedPlan == nil {
			return nil, "", httpError(http.StatusBadRequest, "named plans are not configured on this server")
		}
		plan, err := s.cfg.NamedPlan(req.PlanName)
		if err != nil {
			return nil, "", httpError(http.StatusBadRequest, "unknown plan %q: %v", req.PlanName, err)
		}
		return plan, req.PlanName, nil
	case len(req.Plan) > 0:
		plan, err := DecodePlan(req.Plan, s.cfg.Tables)
		if err != nil {
			return nil, "", httpError(http.StatusBadRequest, "%v", err)
		}
		return plan, "adhoc", nil
	default:
		return nil, "", httpError(http.StatusBadRequest, "request must carry \"plan\" (a plan name) or \"planJSON\" (a plan AST)")
	}
}

// execute is the blessed admission site (enforced by the epsiloncharge
// analyzer): the only function that may call ChargeAdmission and
// RefundAdmission, and it charges before any success return. The charge
// lands before the influence plan runs — a budget-rejected query provably
// computes nothing — and is refunded only when the release provably never
// happened (the run failed before its System charged ε).
func (s *Service) execute(ctx context.Context, req Request, plan sql.Plan, protected, queryName, fp, key string, eps float64, seed uint64) (*Release, *Error) {
	if err := s.ledger.ChargeAdmission(req.Tenant, req.User, eps); err != nil {
		switch {
		case errors.Is(err, ErrTenantBudget), errors.Is(err, ErrUserBudget):
			s.bump(req.Tenant, func(m *tenantMetrics) { m.rejectedBudget++ })
			return nil, &Error{
				Status:            http.StatusTooManyRequests,
				Message:           err.Error(),
				RetryAfterSeconds: s.cfg.RetryAfterSeconds,
			}
		case errors.Is(err, ErrUnknownTenant):
			return nil, httpError(http.StatusNotFound, "%v", err)
		default:
			// Journaling failed: the charge was rolled back, nothing ran.
			s.bump(req.Tenant, func(m *tenantMetrics) { m.failed++ })
			return nil, httpError(http.StatusInternalServerError, "%v", err)
		}
	}

	rel, spent, err := s.computeRelease(ctx, plan, protected, queryName, fp, key, eps, seed)
	if err != nil {
		s.bump(req.Tenant, func(m *tenantMetrics) { m.failed++ })
		if spent == 0 {
			// The System never charged: no noisy output exists, the refund
			// is safe. A refund-journal failure leaves the charge standing
			// (over-counting spend is the safe direction).
			if rerr := s.ledger.RefundAdmission(req.Tenant, req.User, eps); rerr != nil {
				return nil, httpError(http.StatusInternalServerError, "release failed (%v) and refund failed (%v)", err, rerr)
			}
			return nil, httpError(http.StatusInternalServerError, "release failed: %v (ε refunded)", err)
		}
		// ε was spent on a release we could not publish; the charge stands.
		return nil, httpError(http.StatusInternalServerError, "release failed after ε was spent: %v", err)
	}

	s.cache.store(key, rel)
	if s.store != nil {
		if perr := s.store.Append(entry{Kind: entryRelease, Key: key, Release: &rel}); perr != nil {
			// The release is published and charged; losing its cache entry
			// only costs a future re-computation at a fresh charge. Surface
			// nothing to the analyst.
			_ = perr
		}
	}
	s.bump(req.Tenant, func(m *tenantMetrics) {
		m.admitted++
		m.epsilonSpent += eps
	})
	return s.decorate(req, rel, false, eps), nil
}

// computeRelease runs the two serving stages — influence-plan compilation,
// then the DP release — as a jobgraph on the engine's pool. spent reports
// the ε the release's System actually charged (zero when the run died
// before the noise was drawn).
func (s *Service) computeRelease(ctx context.Context, plan sql.Plan, protected, queryName, fp, key string, eps float64, seed uint64) (rel CachedRelease, spent float64, err error) {
	eng := s.cfg.Engine

	ccfg := core.DefaultConfig()
	ccfg.SampleSize = s.cfg.SampleSize
	ccfg.Epsilon = eps
	// The release seed derives from the cache key alone, so the noise
	// stream is a pure function of (fingerprint, protected, ε, seed): the
	// same request is byte-identical across restarts and across servers,
	// independent of what ran before it.
	ccfg.Seed = seedOf(key)
	sys, err := core.NewSystem(eng, ccfg)
	if err != nil {
		return CachedRelease{}, 0, err
	}

	var (
		q    core.Query[int64]
		data []int64
		res  *core.Result
	)
	g := jobgraph.New("serve:"+queryName,
		jobgraph.WithSlots(eng.Workers()),
		jobgraph.WithRetryPolicy(eng.RetryPolicy()),
		jobgraph.WithChaos(eng.Chaos()))
	g.Stage("influence", func(ctx context.Context, sc *jobgraph.StageContext) error {
		var cerr error
		q, data, cerr = sql.CompileDPCount(eng, plan, protected)
		if cerr == nil {
			sc.AddRecords(int64(len(data)))
		}
		return cerr
	})
	g.Stage("release", func(ctx context.Context, sc *jobgraph.StageContext) error {
		var rerr error
		res, rerr = core.RunCtx(ctx, sys, q, data, nil)
		return rerr
	}, "influence")
	if _, gerr := g.Run(ctx); gerr != nil {
		return CachedRelease{}, sys.EpsilonSpent(), gerr
	}

	// Reconcile admission against the System's own ledger: the service
	// admitted eps, the release must have charged exactly eps. A mismatch
	// is a serving bug — fail closed, keep the admission charge (the noisy
	// output exists) and publish nothing.
	spent = sys.EpsilonSpent()
	if math.Abs(spent-eps) > budgetSlack {
		return CachedRelease{}, spent, fmt.Errorf(
			"serve: admission charged ε=%.6g but the release spent ε=%.6g", eps, spent)
	}

	return CachedRelease{
		Query:       queryName,
		Fingerprint: fp,
		Epsilon:     eps,
		Seed:        seed,
		Output:      res.Output,
		SampleSize:  res.SampleSize,
		Charged:     eps,
	}, spent, nil
}

// decorate wraps the cached (tenant-independent) release with the
// requester's identity and remaining headroom.
func (s *Service) decorate(req Request, rel CachedRelease, cached bool, charged float64) *Release {
	tenantRemaining, userRemaining := s.ledger.Remaining(req.Tenant, req.User)
	return &Release{
		Tenant:          req.Tenant,
		User:            req.User,
		Query:           rel.Query,
		Fingerprint:     rel.Fingerprint,
		Epsilon:         rel.Epsilon,
		Seed:            rel.Seed,
		Cached:          cached,
		Charged:         charged,
		Output:          rel.Output,
		SampleSize:      rel.SampleSize,
		TenantRemaining: tenantRemaining,
		UserRemaining:   userRemaining,
	}
}

// seedOf hashes the cache key into the release System's seed (FNV-64a:
// deterministic, dependency-free).
func seedOf(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	seed := h.Sum64()
	if seed == 0 {
		seed = 1 // core.Config rejects a zero seed
	}
	return seed
}

// bump applies fn to tenant's metrics row under the service lock.
func (s *Service) bump(tenant string, fn func(*tenantMetrics)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metrics[tenant]
	if !ok {
		m = &tenantMetrics{}
		s.metrics[tenant] = m
	}
	fn(m)
}

// Metrics snapshots every tenant's serving counters, sorted by tenant.
func (s *Service) Metrics() []TenantMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantMetrics, 0, len(s.metrics))
	for name, m := range s.metrics {
		out = append(out, TenantMetrics{
			Tenant:         name,
			Admitted:       m.admitted,
			CacheHits:      m.cacheHits,
			ShedQueue:      m.shedQueue,
			RejectedBudget: m.rejectedBudget,
			Failed:         m.failed,
			EpsilonSpent:   m.epsilonSpent,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// CacheStats reports the release cache's residency and hit/miss counters.
func (s *Service) CacheStats() (length int, hits, misses uint64) {
	hits, misses = s.cache.Stats()
	return s.cache.Len(), hits, misses
}

// Report snapshots every tenant's budget state — the GET /budget body.
func (s *Service) Report() []TenantBudgetReport {
	return s.ledger.Report()
}

// Close flushes the persisted state — ledger then cache, compacted into a
// fresh snapshot with the journal truncated — and closes the journal. Safe
// to call when persistence is disabled.
func (s *Service) Close() error {
	if s.store == nil {
		return nil
	}
	compacted := append(s.ledger.compact(), s.cache.compact()...)
	ferr := s.store.Flush(compacted)
	cerr := s.store.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

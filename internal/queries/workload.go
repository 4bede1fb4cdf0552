// Package queries implements the nine big-data mining queries of the
// paper's evaluation (Table II) against the engine: the five TPC-H counting
// queries FLEX supports (1, 4, 13, 16, 21), the two arithmetic queries it
// does not (6, 11), and the two machine-learning queries (KMeans, Linear
// Regression).
//
// Every query is expressed in UPA's Mapper/Reducer form: a per-record
// Mapper — closing over broadcast lookup tables of per-key counts, each
// counted by one engine task per partition that reads the relation in place
// and metered as one shuffle and one broadcast — and a commutative,
// associative Reducer (vector addition), optionally followed by a Finalize.
// Queries with correlated structure (TPCH21's exists-other-supplier) follow
// UPA's Spark implementation: the broadcast is computed once over the full
// input and reused while evaluating sampled neighbouring datasets, so each
// record's contribution is independent given the broadcast (§V-B).
package queries

import (
	"fmt"

	"upa/internal/bruteforce"
	"upa/internal/core"
	"upa/internal/flex"
	"upa/internal/lifesci"
	"upa/internal/mapreduce"
	"upa/internal/stats"
	"upa/internal/tpch"
)

// Kind classifies a query as in Table II.
type Kind string

// Query kinds.
const (
	KindCount      Kind = "Count"
	KindArithmetic Kind = "Arithmetic"
	KindML         Kind = "Machine Learning"
)

// Runner is the uniform handle over one evaluated query: the experiment
// harness iterates Runners to regenerate every table and figure.
type Runner interface {
	// Name is the paper's query name ("TPCH1", "KMeans", ...).
	Name() string
	// Kind is the Table II query type.
	Kind() Kind
	// FLEXSupported reports whether FLEX's static analysis covers the query.
	FLEXSupported() bool
	// DatasetSize is the number of protected records (the rows whose
	// addition/removal defines neighbouring datasets).
	DatasetSize() int
	// RunVanilla evaluates the query with no DP machinery.
	RunVanilla(eng *mapreduce.Engine) ([]float64, error)
	// RunUPA releases the query through a UPA system. For join queries it
	// also accounts joinDP's second round, one shuffle of the 2n differing
	// tuples per Join (§V-C).
	RunUPA(sys *core.System) (*core.Result, error)
	// GroundTruth computes the exact neighbouring-output census by brute
	// force: all removals plus nAdditions sampled additions.
	GroundTruth(eng *mapreduce.Engine, nAdditions int, rng *stats.RNG) (*bruteforce.Truth, error)
	// FLEXPlan returns the query as FLEX's static analysis models it. For
	// unsupported queries the plan's LocalSensitivity returns
	// flex.ErrUnsupported.
	FLEXPlan() flex.Plan
}

// Workload is a generated database plus the fixed query parameters (model
// initializations) shared by every run against it.
type Workload struct {
	DB *tpch.DB
	LS *lifesci.Dataset

	// kmInit is the fixed KMeans initialization; lrInit the fixed starting
	// weights for the linear-regression SGD step. Both derive
	// deterministically from the workload seed.
	kmInit [][]float64
	lrInit []float64
}

// NewWorkload generates a workload from the two generator configurations.
func NewWorkload(tcfg tpch.Config, lcfg lifesci.Config) (*Workload, error) {
	db, err := tpch.Generate(tcfg)
	if err != nil {
		return nil, fmt.Errorf("queries: generate tpch: %w", err)
	}
	return newWorkload(db, lcfg)
}

// NewWorkloadFromDB wraps an already generated TPC-H database in a workload
// (with a minimal life-science side), for callers that only need the SQL
// queries.
func NewWorkloadFromDB(db *tpch.DB) (*Workload, error) {
	if db == nil {
		return nil, fmt.Errorf("queries: nil database")
	}
	return newWorkload(db, lifesci.Config{
		Records: 100, Dims: 2, Clusters: 2, OutlierFrac: 0.01, Seed: db.Config.Seed,
	})
}

func newWorkload(db *tpch.DB, lcfg lifesci.Config) (*Workload, error) {
	ls, err := lifesci.Generate(lcfg)
	if err != nil {
		return nil, fmt.Errorf("queries: generate lifesci: %w", err)
	}
	w := &Workload{DB: db, LS: ls}
	// Initialize KMeans near (but not at) the planted centres and LR at a
	// deterministic non-zero weight vector, so one iteration moves both.
	initRNG := stats.NewRNG(db.Config.Seed ^ 0xA5A5)
	w.kmInit = make([][]float64, lcfg.Clusters)
	for c := range w.kmInit {
		w.kmInit[c] = make([]float64, lcfg.Dims)
		for d := range w.kmInit[c] {
			w.kmInit[c][d] = ls.TrueCenters[c][d] + 2*initRNG.NormFloat64()
		}
	}
	w.lrInit = make([]float64, lcfg.Dims+1)
	for d := range w.lrInit {
		w.lrInit[d] = 0.1 * initRNG.NormFloat64()
	}
	return w, nil
}

// DefaultWorkload generates the evaluation-default workload.
func DefaultWorkload() (*Workload, error) {
	return NewWorkload(tpch.DefaultConfig(), lifesci.DefaultConfig())
}

// All returns the nine evaluated queries in the paper's Table II order.
func (w *Workload) All() []Runner {
	return []Runner{
		w.TPCH1(), w.TPCH4(), w.TPCH13(), w.TPCH16(), w.TPCH21(),
		w.KMeans(), w.LinearRegression(),
		w.TPCH6(), w.TPCH11(),
	}
}

// ByName returns the named runner (case-sensitive, Table II names).
func (w *Workload) ByName(name string) (Runner, error) {
	for _, r := range w.All() {
		if r.Name() == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("queries: unknown query %q", name)
}

// runner is the shared generic implementation behind every Runner.
type runner[T any] struct {
	name  string
	kind  Kind
	size  int
	joins int // number of Join operators in the plan
	bind  func(eng *mapreduce.Engine) (core.Query[T], []T, func(*stats.RNG) T, error)
	plan  func() flex.Plan
}

func (r *runner[T]) Name() string        { return r.name }
func (r *runner[T]) Kind() Kind          { return r.kind }
func (r *runner[T]) FLEXSupported() bool { return r.kind == KindCount }
func (r *runner[T]) DatasetSize() int    { return r.size }

func (r *runner[T]) RunVanilla(eng *mapreduce.Engine) ([]float64, error) {
	q, data, _, err := r.bind(eng)
	if err != nil {
		return nil, err
	}
	return core.RunVanilla(eng, q, data)
}

func (r *runner[T]) RunUPA(sys *core.System) (*core.Result, error) {
	q, data, domain, err := r.bind(sys.Engine())
	if err != nil {
		return nil, err
	}
	// joinDP's second round joins and shuffles the 2n differing tuples,
	// the n sampled removals and n additions, once per Join (§V-C).
	n := min(sys.Config().SampleSize, len(data))
	for range r.joins {
		sys.Engine().AccountShuffle(2 * n)
	}
	return core.Run(sys, q, data, domain)
}

func (r *runner[T]) GroundTruth(eng *mapreduce.Engine, nAdditions int, rng *stats.RNG) (*bruteforce.Truth, error) {
	q, data, domain, err := r.bind(eng)
	if err != nil {
		return nil, err
	}
	if nAdditions == 0 {
		return bruteforce.LocalSensitivity(eng, q, data, nil, 0, nil)
	}
	return bruteforce.LocalSensitivity(eng, q, data, domain, nAdditions, rng)
}

func (r *runner[T]) FLEXPlan() flex.Plan { return r.plan() }

// unsupportedPlan is the FLEXPlan of every non-count query.
func unsupportedPlan(name string) func() flex.Plan {
	return func() flex.Plan { return flex.Plan{Name: name, CountQuery: false} }
}

package core

import (
	"fmt"
	"log/slog"
	"math"
	"sync/atomic"
	"time"

	"upa/internal/jobgraph"
	"upa/internal/mapreduce"
	"upa/internal/stats"
)

// Config tunes a UPA system.
type Config struct {
	// SampleSize is n, the number of differing records sampled on each side
	// (removals from x and additions from D \ x). The paper's default of
	// 1000 is statistically sufficient to identify the normal distribution
	// of neighbouring outputs (§IV-A); for datasets smaller than n, UPA
	// degenerates to the exact local sensitivity over all removals.
	SampleSize int
	// Epsilon is the per-release privacy budget (the paper evaluates 0.1).
	Epsilon float64
	// PercentileLo/Hi bound the inferred output range; the paper uses the
	// 1st and 99th percentiles of the MLE-fitted normal distribution.
	PercentileLo, PercentileHi float64
	// Tolerance is the relative tolerance for the RANGE ENFORCER's
	// partition-output comparisons.
	Tolerance float64
	// Seed drives every stochastic component (sampling, clamping, noise).
	Seed uint64
	// Logger, when non-nil, receives one structured record per release
	// (phase durations, inferred sensitivity, enforcer decisions). Nil
	// keeps releases silent.
	Logger *slog.Logger

	// OnCharge, when non-nil, observes every ε-ledger charge the instant it
	// lands (the argument is the charged ε). Serving layers use it to
	// reconcile their own admission-time accounting against the system's
	// actual spend — any divergence means an admission path mispriced a
	// release. The hook runs on the charging goroutine and must not block;
	// it observes, it cannot veto.
	OnCharge func(eps float64)

	// GroupSize extends the guarantee from individuals to groups of up to
	// GroupSize records (the §VI-E future-work extension): besides the
	// single-record neighbours, UPA evaluates block removals and block
	// additions of GroupSize records — reusing the same sampled mapped
	// records and R(M(S')) — and infers the output range over the union, so
	// the enforced range also covers any group's influence up to that size.
	// Zero or one means the paper's individual guarantee.
	GroupSize int

	// SplitVectorBudget divides ε across the output coordinates of
	// vector-valued queries (KMeans centroids, regression weights): adding
	// independent Laplace noise to d coordinates composes to d·ε under the
	// paper's per-coordinate treatment, so splitting restores a strict
	// whole-vector ε at the cost of d× more noise per coordinate. Scalar
	// queries are unaffected.
	SplitVectorBudget bool

	// EmpiricalRange infers the output range from the empirical quantiles
	// of the sampled neighbouring outputs instead of the paper's MLE normal
	// fit — the ablation for §VI-C, where the normal fit is the sole error
	// source on TPCH1 (whose neighbouring outputs are not normal) and the
	// reason outliers escape the range on TPCH21.
	EmpiricalRange bool

	// DisableReuse recomputes each neighbouring output from scratch instead
	// of reusing R(M(S')) and the prefix/suffix partials — the ablation for
	// the linear-to-constant overhead claim of §VI-E. Only for experiments.
	DisableReuse bool
	// DisableClamp skips the output-range clamping of Algorithm 2 — the
	// ablation showing why the inferred sensitivity alone does not bound
	// the true local sensitivity. Only for experiments; it voids the iDP
	// guarantee.
	DisableClamp bool
}

// DefaultConfig returns the paper's evaluation defaults.
func DefaultConfig() Config {
	return Config{
		SampleSize:   1000,
		Epsilon:      0.1,
		PercentileLo: 0.01,
		PercentileHi: 0.99,
		Tolerance:    1e-9,
		Seed:         1,
	}
}

func (c Config) validate() error {
	if c.SampleSize < 1 {
		return fmt.Errorf("core: SampleSize must be >= 1, got %d", c.SampleSize)
	}
	if c.Epsilon <= 0 {
		return fmt.Errorf("core: Epsilon must be positive, got %v", c.Epsilon)
	}
	if c.PercentileLo <= 0 || c.PercentileHi >= 1 || c.PercentileLo >= c.PercentileHi {
		return fmt.Errorf("core: percentile range (%v, %v) invalid", c.PercentileLo, c.PercentileHi)
	}
	if c.GroupSize < 0 {
		return fmt.Errorf("core: GroupSize must be non-negative, got %d", c.GroupSize)
	}
	if c.GroupSize > c.SampleSize {
		return fmt.Errorf("core: GroupSize %d exceeds SampleSize %d", c.GroupSize, c.SampleSize)
	}
	return nil
}

// System is a UPA deployment: an engine to run queries on, a RANGE ENFORCER
// whose history spans all queries released through this system, and a
// Laplace mechanism. Construct with NewSystem.
type System struct {
	eng      *mapreduce.Engine
	cfg      Config
	enforcer *RangeEnforcer
	rng      *stats.RNG
	// releases numbers the releases of this system, giving every release a
	// distinct deterministic RNG stream.
	releases atomic.Uint64
	// epsilonSpentBits is the iDP budget ledger: the float64 bits of the
	// total ε charged across successful releases (EffectiveEpsilon ×
	// OutputDim each). A CAS accumulator rather than a mutex so concurrent
	// releases stay lock-free; charged exactly once per successful release —
	// the chaos soak test pins that fault recomputation never double-spends.
	epsilonSpentBits atomic.Uint64
}

// chargeEpsilon adds eps to the system's spent-budget ledger and notifies
// the OnCharge observer, if any.
func (s *System) chargeEpsilon(eps float64) {
	for {
		old := s.epsilonSpentBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + eps)
		if s.epsilonSpentBits.CompareAndSwap(old, next) {
			break
		}
	}
	if s.cfg.OnCharge != nil {
		s.cfg.OnCharge(eps)
	}
}

// EpsilonSpent reports the total privacy budget charged by this system's
// successful releases.
func (s *System) EpsilonSpent() float64 {
	return math.Float64frombits(s.epsilonSpentBits.Load())
}

// NewSystem builds a UPA system on eng with cfg.
func NewSystem(eng *mapreduce.Engine, cfg Config) (*System, error) {
	if eng == nil {
		return nil, fmt.Errorf("core: nil engine")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Validate the epsilon/mechanism pairing eagerly even though each
	// release constructs its own mechanism (a shared one would make
	// concurrent releases race on its noise RNG).
	rng := stats.NewRNG(cfg.Seed)
	if _, err := stats.NewMechanism(cfg.Epsilon, rng.Split(0xD9)); err != nil {
		return nil, err
	}
	return &System{
		eng:      eng,
		cfg:      cfg,
		enforcer: NewRangeEnforcer(cfg.Tolerance),
		rng:      rng,
	}, nil
}

// Engine returns the engine the system runs on.
func (s *System) Engine() *mapreduce.Engine { return s.eng }

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Enforcer returns the system's RANGE ENFORCER.
func (s *System) Enforcer() *RangeEnforcer { return s.enforcer }

// ResetHistory clears the RANGE ENFORCER history, starting a fresh analyst
// session.
func (s *System) ResetHistory() { s.enforcer.Reset() }

// PhaseTimings breaks a release's wall-clock time into the paper's four
// phases (§III).
type PhaseTimings struct {
	PartitionSample       time.Duration
	ParallelMap           time.Duration
	UnionPreservingReduce time.Duration
	IDPEnforcement        time.Duration
}

// Total returns the sum of all phases.
func (p PhaseTimings) Total() time.Duration {
	return p.PartitionSample + p.ParallelMap + p.UnionPreservingReduce + p.IDPEnforcement
}

// Result is one end-to-end iDP release.
type Result struct {
	// Query is the released query's name.
	Query string
	// Output is the noisy output returned to the analyst.
	Output []float64

	// The fields below exist for experiments and examples; a production
	// deployment would release only Output.

	// The //upa:dpsource markers below feed the dpflow analyzer: every read
	// of these field names is a pre-noise taint source, and any path into a
	// log line, error string, or HTTP response that skips the noise
	// mechanism is a vet error (data-dependent sensitivities are themselves
	// disclosive — the DPSQL+ leak class).

	// RawOutput is the post-enforcement, pre-noise output.
	RawOutput []float64 //upa:dpsource
	// VanillaOutput is f(x) with no enforcement at all.
	VanillaOutput []float64 //upa:dpsource
	// Sensitivity is the inferred local sensitivity per coordinate
	// (99th minus 1st percentile of the fitted normal distribution); it
	// scales the released noise and upper-bounds the enforced output range.
	Sensitivity []float64 //upa:dpsource
	// EmpiricalLocalSensitivity is, per coordinate, the greatest observed
	// |f(y) - f(x)| over the sampled neighbouring datasets — the direct
	// sampling estimate of Definition II.1, which the accuracy experiments
	// compare against the brute-force ground truth (Figure 2a).
	EmpiricalLocalSensitivity []float64 //upa:dpsource
	// RangeLo/RangeHi are the enforced output range per coordinate.
	RangeLo, RangeHi []float64 //upa:dpsource
	// RemovalOutputs[i] is f(x - s_i) for the i-th sampled record;
	// AdditionOutputs[i] is f(x + s̄_i) for the i-th domain sample.
	RemovalOutputs, AdditionOutputs [][]float64 //upa:dpsource
	// GroupRemovalOutputs and GroupAdditionOutputs are the block-neighbour
	// outputs sampled when Config.GroupSize > 1 (f with a whole group of
	// records removed or added); empty otherwise.
	GroupRemovalOutputs, GroupAdditionOutputs [][]float64 //upa:dpsource
	// SampleSize is the effective n used (min of the configured n and |x|).
	SampleSize int
	// RemovedRecords counts the records the RANGE ENFORCER removed to break
	// a suspected attack; AttackSuspected reports whether the removal loop
	// ran, and CollidedWith names the first colliding prior query.
	RemovedRecords  int
	AttackSuspected bool
	CollidedWith    string
	// ClampedCoords counts output coordinates forced into the range.
	ClampedCoords int
	// EffectiveEpsilon is the per-coordinate ε the noise was drawn at
	// (Config.Epsilon, or Config.Epsilon/OutputDim under SplitVectorBudget).
	EffectiveEpsilon float64
	// Phases is the wall-clock breakdown; EngineDelta the engine activity
	// (shuffles, reduce ops, cache traffic) attributable to this release.
	Phases      PhaseTimings
	EngineDelta mapreduce.MetricsSnapshot
	// Release is this release's sequence number on its System (1-based); it
	// seeds the release's RNG stream and keys its cache entries.
	Release uint64
	// Spans records one entry per jobgraph stage the release executed —
	// start/end, attempts (including retries), and the
	// records/shuffle/reduce/cache counters each stage reported.
	Spans []jobgraph.Span
}

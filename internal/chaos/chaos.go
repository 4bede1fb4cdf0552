// Package chaos is the repository's deterministic fault-injection and
// retry-policy layer. UPA's accuracy and privacy arguments assume the
// substrate recovers from task failures without changing query output —
// Spark gets this from lineage-based fault tolerance; our in-process engine
// gets it from pure task closures plus the retry machinery this package
// configures. Following DPBench's discipline of evaluating DP systems under
// principled, repeatable conditions, every injection decision here is a pure
// function of a seed and the decision's stable coordinates (site label, task
// index, attempt number), never of goroutine scheduling order: the same seed
// reproduces the same fault pattern on every run, which is what makes the
// chaos soak tests meaningful rather than flaky.
//
// The package is a leaf: it imports only the standard library, so both the
// mapreduce engine and the jobgraph scheduler (which must not know about
// each other) can share one Injector and one RetryPolicy.
package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrInjected marks an artificial failure produced by an Injector. The retry
// layers treat it as transient: task attempts failing with it are retried
// from lineage, shuffle fetches failing with it are re-fetched.
var ErrInjected = errors.New("chaos: injected fault")

// Policy configures what an Injector breaks and how often. All rates are
// probabilities in [0, 1) evaluated independently per decision; a zero
// Policy injects nothing.
type Policy struct {
	// Seed drives every injection decision. Two Injectors with the same
	// Policy make identical decisions at identical (site, task, attempt)
	// coordinates regardless of execution interleaving.
	Seed uint64
	// TaskFaultRate is the probability that one task attempt fails before
	// running.
	TaskFaultRate float64
	// StragglerRate is the probability that one task attempt is delayed by
	// StragglerDelay before running — the straggler injection that
	// exercises per-attempt deadline handling.
	StragglerRate  float64
	StragglerDelay time.Duration
	// ShuffleErrorRate is the probability that one shuffle materialization
	// attempt fails transiently before any data moves, like a lost fetch
	// from a remote shuffle service.
	ShuffleErrorRate float64
	// SlotLossRate is the probability that one worker slot of a task pool
	// is lost for the duration of that pool's job (the worker exits early
	// and its share of tasks redistributes to the survivors). Slot 0 is
	// never lost, so every job keeps making progress.
	SlotLossRate float64

	// Disk-fault rates drive the seeded storage-fault model injected under
	// the spill store's filesystem indirection (internal/mapreduce). Each
	// decision is a pure hash of (seed, fault kind, site, file, attempt),
	// so a given fault fires at the same file open/create on every run.
	//
	// DiskWriteErrorRate fails a file creation outright (EIO on open for
	// write). DiskENOSPCRate lets a write start, then fails it partway with
	// ErrNoSpace, leaving a partial temp file behind. DiskTornWriteRate is
	// the nasty one: the write silently drops its tail bytes yet reports
	// success, so only end-to-end checksums/record counts catch it at read
	// time. DiskRenameErrorRate fails the atomic publish rename.
	// DiskReadErrorRate fails opening a file for read (EIO).
	// DiskCorruptionRate flips one byte of the stream read back — the
	// on-disk file stays intact, modeling a transient controller/DMA error.
	DiskWriteErrorRate  float64
	DiskENOSPCRate      float64
	DiskTornWriteRate   float64
	DiskRenameErrorRate float64
	DiskReadErrorRate   float64
	DiskCorruptionRate  float64
}

// Validate checks the policy's rates.
func (p Policy) Validate() error {
	for _, r := range []struct {
		name string
		rate float64
	}{
		{"TaskFaultRate", p.TaskFaultRate},
		{"StragglerRate", p.StragglerRate},
		{"ShuffleErrorRate", p.ShuffleErrorRate},
		{"SlotLossRate", p.SlotLossRate},
		{"DiskWriteErrorRate", p.DiskWriteErrorRate},
		{"DiskENOSPCRate", p.DiskENOSPCRate},
		{"DiskTornWriteRate", p.DiskTornWriteRate},
		{"DiskRenameErrorRate", p.DiskRenameErrorRate},
		{"DiskReadErrorRate", p.DiskReadErrorRate},
		{"DiskCorruptionRate", p.DiskCorruptionRate},
	} {
		if r.rate < 0 || r.rate >= 1 {
			return fmt.Errorf("chaos: %s %v outside [0, 1)", r.name, r.rate)
		}
	}
	if p.StragglerDelay < 0 {
		return fmt.Errorf("chaos: negative StragglerDelay %v", p.StragglerDelay)
	}
	return nil
}

// Counters snapshots what an Injector has broken so far.
type Counters struct {
	Faults        int64
	Stragglers    int64
	ShuffleErrors int64
	SlotsLost     int64
	// Disk-fault counters, one per injected storage failure mode.
	DiskWriteErrors  int64
	DiskENOSPCs      int64
	DiskTornWrites   int64
	DiskRenameErrors int64
	DiskReadErrors   int64
	DiskCorruptions  int64
}

// Injector makes deterministic, seeded fault-injection decisions. All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// Injector injects nothing), so call sites need no guards.
type Injector struct {
	policy Policy

	faults        atomic.Int64
	stragglers    atomic.Int64
	shuffleErrors atomic.Int64
	slotsLost     atomic.Int64

	diskWriteErrors  atomic.Int64
	diskENOSPCs      atomic.Int64
	diskTornWrites   atomic.Int64
	diskRenameErrors atomic.Int64
	diskReadErrors   atomic.Int64
	diskCorruptions  atomic.Int64
}

// New builds an Injector. An invalid policy is clamped to inject nothing
// rather than panicking mid-job; validate policies at the boundary with
// Policy.Validate when the error matters.
func New(policy Policy) *Injector {
	if policy.Validate() != nil {
		policy = Policy{}
	}
	return &Injector{policy: policy}
}

// Decision kinds keep the per-rate hash streams independent: the same
// (site, task, attempt) must be allowed to straggle without also faulting.
const (
	kindTaskFault uint64 = 1 + iota
	kindStraggler
	kindShuffleError
	kindSlotLoss
	kindStageFault
	kindDiskWriteError
	kindDiskENOSPC
	kindDiskTornWrite
	kindDiskRenameError
	kindDiskReadError
	kindDiskCorruption
	kindDiskVariate
)

// TaskFault reports whether the attempt-th try of task `task` at `site`
// should fail before running, as a seeded hash of the coordinates.
func (j *Injector) TaskFault(site string, task, attempt int) bool {
	if j == nil {
		return false
	}
	if j.decide(kindTaskFault, site, task, attempt, j.policy.TaskFaultRate) {
		j.faults.Add(1)
		return true
	}
	return false
}

// StageFault reports whether the attempt-th try of stage task `task` at
// `site` should fail before running. It draws from its own hash stream, so
// stage- and engine-level decisions at coincident coordinates stay
// independent.
func (j *Injector) StageFault(site string, task, attempt int) bool {
	if j == nil {
		return false
	}
	if j.decide(kindStageFault, site, task, attempt, j.policy.TaskFaultRate) {
		j.faults.Add(1)
		return true
	}
	return false
}

// TaskDelay returns the injected straggler delay for one task attempt, or
// zero.
func (j *Injector) TaskDelay(site string, task, attempt int) time.Duration {
	if j == nil || j.policy.StragglerDelay <= 0 {
		return 0
	}
	if j.decide(kindStraggler, site, task, attempt, j.policy.StragglerRate) {
		j.stragglers.Add(1)
		return j.policy.StragglerDelay
	}
	return 0
}

// ShuffleError reports whether the attempt-th materialization of the shuffle
// at `site` should fail transiently before any data moves.
func (j *Injector) ShuffleError(site string, attempt int) bool {
	if j == nil {
		return false
	}
	if j.decide(kindShuffleError, site, 0, attempt, j.policy.ShuffleErrorRate) {
		j.shuffleErrors.Add(1)
		return true
	}
	return false
}

// SlotLost reports whether worker slot `slot` of the pool running `site`
// is lost. Slot 0 is never lost so the job keeps making progress.
func (j *Injector) SlotLost(site string, slot int) bool {
	if j == nil || slot == 0 {
		return false
	}
	if j.decide(kindSlotLoss, site, slot, 0, j.policy.SlotLossRate) {
		j.slotsLost.Add(1)
		return true
	}
	return false
}

// Snapshot returns the injector's counters.
func (j *Injector) Snapshot() Counters {
	if j == nil {
		return Counters{}
	}
	return Counters{
		Faults:           j.faults.Load(),
		Stragglers:       j.stragglers.Load(),
		ShuffleErrors:    j.shuffleErrors.Load(),
		SlotsLost:        j.slotsLost.Load(),
		DiskWriteErrors:  j.diskWriteErrors.Load(),
		DiskENOSPCs:      j.diskENOSPCs.Load(),
		DiskTornWrites:   j.diskTornWrites.Load(),
		DiskRenameErrors: j.diskRenameErrors.Load(),
		DiskReadErrors:   j.diskReadErrors.Load(),
		DiskCorruptions:  j.diskCorruptions.Load(),
	}
}

// decide hashes the decision coordinates under the seed and compares the
// resulting uniform variate against rate.
func (j *Injector) decide(kind uint64, site string, a, b int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	h := j.policy.Seed ^ mix64(kind^0x9e3779b97f4a7c15)
	h = mix64(h ^ hashString(site))
	h = mix64(h ^ uint64(a))
	h = mix64(h ^ uint64(b))
	return uniform(h) < rate
}

// uniform maps 64 hash bits onto [0, 1) using the top 53 bits.
func uniform(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer — the same mixer the stats package uses,
// duplicated here so chaos stays a leaf package.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

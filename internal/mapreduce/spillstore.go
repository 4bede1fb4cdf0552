package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"upa/internal/chaos"
)

// spillStore is the engine's memory-budget accountant and temp-file
// allocator. Every materialization that would retain records in memory
// (source partitions, shuffle buckets, sorted runs) first asks admit; past
// the budget the materialization is written to deterministic checksummed
// temp files instead and read back on demand.
//
// The temp directory is created lazily on the first spill, so engines that
// never exceed their budget (including every engine with the default
// unlimited budget) touch no disk at all. Close removes the directory.
//
// The store distrusts the disk: every write is re-read and structurally
// verified before publication (catching torn writes while the records are
// still in hand), every read checks the v2 format's header and frame
// checksums, and all I/O goes through the fs indirection so the chaos
// layer can inject storage faults underneath the real recovery paths.
type spillStore struct {
	metrics *Metrics

	// fs is the filesystem indirection: osFS in production, chaosFS when
	// the engine has a fault injector armed.
	fs spillFS

	// budget is the in-memory byte ceiling: negative means unlimited, zero
	// spills every materialization. retained is the running total of bytes
	// admitted in memory; it is never decremented — an engine is scoped to
	// a job or serving session, and once its working set has filled the
	// budget, later materializations belong on disk.
	budget   int64
	retained atomic.Int64

	// seq disambiguates stores whose datasets share a lineage name (two
	// independent "source" datasets must not overwrite each other's files).
	seq atomic.Uint64

	mu     sync.Mutex
	dir    string //upa:guardedby(mu)
	closed bool   //upa:guardedby(mu)
	// inflight counts I/O operations between beginIO and their release;
	// close waits for it to drain before removing the directory, so a
	// concurrent write or streaming read never sees its file yanked away
	// mid-flight (and never strands a .tmp in a half-removed tree).
	inflight sync.WaitGroup
}

// errSpillClosed reports I/O attempted after close. It is terminal: unlike
// an injected disk fault, retrying cannot help.
var errSpillClosed = errors.New("mapreduce: spill store closed")

// admit reports whether a materialization of estimated size n may stay in
// memory, reserving the bytes if so.
func (st *spillStore) admit(n int64) bool {
	if st.budget < 0 {
		return true
	}
	for {
		cur := st.retained.Load()
		if cur+n > st.budget {
			return false
		}
		if st.retained.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// beginIO registers one in-flight I/O operation against close, lazily
// creating the spill directory. The returned release must be called when
// the operation's file handles are closed; until then close blocks rather
// than removing the directory out from under it.
func (st *spillStore) beginIO() (dir string, release func(), err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return "", nil, errSpillClosed
	}
	if st.dir == "" {
		dir, err := st.fs.MkdirTemp("upa-spill-*")
		if err != nil {
			return "", nil, fmt.Errorf("mapreduce: create spill dir: %w", err)
		}
		st.dir = dir
	}
	st.inflight.Add(1)
	var once sync.Once
	return st.dir, func() { once.Do(st.inflight.Done) }, nil
}

// close removes the spill directory and everything in it, after waiting for
// in-flight I/O to drain. New I/O started after close begins fails with
// errSpillClosed. Idempotent.
func (st *spillStore) close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	dir := st.dir
	st.dir = ""
	st.mu.Unlock()
	st.inflight.Wait()
	if dir == "" {
		return nil
	}
	return st.fs.RemoveAll(dir)
}

// spillWrite spills recs under a deterministic file name: write to a .tmp
// sibling, verify the bytes that actually landed, then rename — so a file
// either exists complete and checksum-clean or not at all, and a retried
// task rewriting its spill lands the identical bytes atomically. The
// verification read is what catches a torn write (a silently dropped tail
// that still reported success) while the records are still in hand to
// retry, instead of at some much later read with the lineage gone cold.
func spillWrite[T any](st *spillStore, name string, recs []T) (string, error) {
	dir, release, err := st.beginIO()
	if err != nil {
		return "", err
	}
	defer release()
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := st.fs.Create(tmp)
	if err != nil {
		return "", err
	}
	n, err := writeSpill(f, recs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = verifySpillFile(st, tmp)
	}
	if err == nil {
		err = st.fs.Rename(tmp, path)
	}
	if err != nil {
		st.fs.Remove(tmp)
		return "", err
	}
	st.metrics.SpillFiles.Add(1)
	st.metrics.SpilledBytes.Add(n)
	return path, nil
}

// verifySpillFile re-reads path and checks its structural integrity
// (header + every frame checksum + record count) without decoding records.
func verifySpillFile(st *spillStore, path string) error {
	f, size, err := st.fs.Open(path)
	if err != nil {
		return fmt.Errorf("mapreduce: verify spill: %w", err)
	}
	verr := verifySpill(f, size)
	if cerr := f.Close(); verr == nil {
		verr = cerr
	}
	return verr
}

// spillWriteRetry is spillWrite under the engine's retry policy: transient
// failures — injected disk faults, verification failures, real EIO — are
// retried with the policy's seeded backoff. The caller decides what a final
// failure means (storeParts degrades to in-memory retention; a recovery
// rewrite is best-effort).
func spillWriteRetry[T any](eng *Engine, site, name string, part int, recs []T) (string, error) {
	maxAttempts := eng.policy.Attempts()
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			eng.metrics.SpillWriteRetries.Add(1)
			if d := eng.policy.Backoff(site+":spill-write", part, attempt-1); d > 0 {
				eng.metrics.BackoffNanos.Add(int64(d))
				time.Sleep(d)
			}
		}
		path, err := spillWrite(eng.spill, name, recs)
		if err == nil {
			return path, nil
		}
		if errors.Is(err, ErrSpillCorrupt) {
			// The verification read caught a torn or corrupted landing.
			eng.metrics.SpillCorruptionsDetected.Add(1)
		}
		if errors.Is(err, errSpillClosed) {
			return "", err
		}
		lastErr = err
	}
	return "", fmt.Errorf("mapreduce: %s: spill write %s gave up after %d attempts: %w",
		site, name, maxAttempts, lastErr)
}

// spillRead reads a whole spill file back as an owned slice.
func spillRead[T any](st *spillStore, path string, count int) ([]T, error) {
	_, release, err := st.beginIO()
	if err != nil {
		return nil, err
	}
	defer release()
	f, size, err := st.fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: open spill: %w", err)
	}
	defer f.Close()
	st.metrics.SpillReads.Add(1)
	return readSpill[T](f, size, count)
}

// spillOpen opens a streaming reader over a spill file. The caller owns the
// returned close function (which also releases the store's in-flight hold).
func spillOpen[T any](st *spillStore, path string) (*spillReader[T], func() error, error) {
	_, release, err := st.beginIO()
	if err != nil {
		return nil, nil, err
	}
	f, size, err := st.fs.Open(path)
	if err != nil {
		release()
		return nil, nil, fmt.Errorf("mapreduce: open spill: %w", err)
	}
	st.metrics.SpillReads.Add(1)
	return newSpillReader[T](f, size), func() error {
		err := f.Close()
		release()
		return err
	}, nil
}

// sanitizeSite turns a lineage site name into a file-name-safe fragment.
func sanitizeSite(site string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, site)
}

// partStore holds one stage's materialized partitions (or shuffle buckets):
// shared in-memory slices, spill files, or a mix (partitions whose writes
// kept failing degrade to memory). The partition data is immutable after
// construction, so concurrent reads need no lock; healMu only serializes
// best-effort rewrites of a corrupted file.
type partStore[T any] struct {
	eng    *Engine
	site   string
	mem    [][]T    // mem[i] is partition i when retained in memory
	files  []string // files[i] is partition i's spill file ("" when in memory)
	names  []string // names[i] is files[i]'s base name, for recovery rewrites
	counts []int

	// recompute re-materializes partition i from dataset lineage — the same
	// compute closure the store sits behind. It is the store's corruption
	// escape hatch: when a spill file fails its checksums, get recomputes
	// the partition and heals the file instead of failing the job. Nil for
	// source stores, whose records have no lineage upstream of the store.
	recompute func(ctx context.Context, i int) ([]T, error)

	healMu sync.Mutex
}

// storeParts admits parts against the engine's memory budget, keeping them
// in memory when they fit and spilling one deterministic file per index —
// named <seq>-<site>-<index>.spill — when they do not. Spill writes run
// under the engine's retry policy; a partition whose write keeps failing
// (disk full, persistent EIO) is retained in memory instead, so storage
// faults degrade capacity rather than failing the job.
func storeParts[T any](eng *Engine, site string, parts [][]T, recompute func(ctx context.Context, i int) ([]T, error)) (*partStore[T], error) {
	counts := make([]int, len(parts))
	for i, p := range parts {
		counts[i] = len(p)
	}
	st := &partStore[T]{eng: eng, site: site, counts: counts, recompute: recompute}
	if eng.spill.admit(estimatePartsBytes(parts)) {
		st.mem = parts
		return st, nil
	}
	prefix := fmt.Sprintf("%06d-%s", eng.spill.seq.Add(1), sanitizeSite(site))
	st.mem = make([][]T, len(parts))
	st.files = make([]string, len(parts))
	st.names = make([]string, len(parts))
	for i, p := range parts {
		name := fmt.Sprintf("%s-%04d.spill", prefix, i)
		path, err := spillWriteRetry(eng, site, name, i, p)
		if err != nil {
			if errors.Is(err, errSpillClosed) {
				return nil, err
			}
			// Graceful degradation: the disk refused this partition after
			// every retry, so retain it in memory (accounting it against
			// the budget) rather than failing the job.
			eng.spill.retained.Add(estimateRecords(p))
			eng.metrics.SpillFallbacksInMemory.Add(1)
			st.mem[i] = p
			continue
		}
		st.files[i] = path
		st.names[i] = name
	}
	return st, nil
}

// get returns partition i: the shared in-memory slice (callers must treat
// it as read-only, as with every engine-materialized partition) or an owned
// slice decoded from the spill file.
func (s *partStore[T]) get(ctx context.Context, i int) ([]T, error) {
	if s.files == nil || s.files[i] == "" {
		return s.mem[i], nil
	}
	var recs []T
	recovered, recomputed, err := s.recoverRead(ctx, i, func() (rerr error) {
		recs, rerr = spillRead[T](s.eng.spill, s.files[i], s.counts[i])
		if rerr == nil && len(recs) != s.counts[i] {
			rerr = corruptf("%s: partition %d decoded %d records, store expected %d",
				s.site, i, len(recs), s.counts[i])
		}
		return rerr
	})
	switch {
	case err != nil:
		return nil, err
	case recomputed:
		return recovered, nil
	}
	return recs, nil
}

// recoverRead runs read — one attempt at partition i's spill file — and is
// the store's single read-recovery path, shared by get and partCursor.
//
// The read path distrusts the disk. A failed or corrupt read is retried
// under the engine's retry policy; on a store with lineage the failure is
// answered by re-materializing the partition (recompute) and healing the
// file, so a torn or rotten spill file costs a recomputation, not the job.
// The recomputed records come back with recomputed set. Injected transient
// faults clear on a later attempt; a store with no lineage (a source)
// retries the read alone, which handles every transient fault and honestly
// fails on true bit rot of irreproducible input.
func (s *partStore[T]) recoverRead(ctx context.Context, i int, read func() error) (recs []T, recomputed bool, err error) {
	eng := s.eng
	maxAttempts := eng.policy.Attempts()
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if attempt > 1 {
			if d := eng.policy.Backoff(s.site+":spill-read", i, attempt-1); d > 0 {
				eng.metrics.BackoffNanos.Add(int64(d))
				if !chaos.Sleep(ctx, d) {
					return nil, false, ctx.Err()
				}
			}
		}
		err := read()
		if err == nil {
			return nil, false, nil
		}
		if errors.Is(err, errSpillClosed) {
			return nil, false, err
		}
		if errors.Is(err, ErrSpillCorrupt) {
			eng.metrics.SpillCorruptionsDetected.Add(1)
		}
		lastErr = err
		if s.recompute == nil {
			continue
		}
		recs, rerr := s.recompute(ctx, i)
		if rerr != nil {
			lastErr = fmt.Errorf("mapreduce: %s: partition %d recompute: %w", s.site, i, rerr)
			continue
		}
		if len(recs) != s.counts[i] {
			return nil, false, fmt.Errorf("mapreduce: %s: partition %d recompute returned %d records, store expected %d — lineage is not deterministic",
				s.site, i, len(recs), s.counts[i])
		}
		eng.metrics.SpillRecomputes.Add(1)
		s.heal(i, recs)
		return recs, true, nil
	}
	return nil, false, fmt.Errorf("mapreduce: %s: partition %d unreadable after %d attempts: %w",
		s.site, i, maxAttempts, lastErr)
}

// partCursor streams partition i of a store one record at a time, holding
// at most one decoded frame of a spilled partition in memory. Every read
// goes through the store's recoverRead loop: after a fault the cursor tears
// its reader down, and the next attempt reopens the file and skips the
// records already handed out; when the store recomputes the partition from
// lineage instead, the cursor continues from the same position in the
// recomputed records.
type partCursor[T any] struct {
	s *partStore[T]
	i int

	spilled bool // reading the spill file; false once recs holds the partition
	recs    []T
	pos     int // records handed out so far

	r       *spillReader[T]
	closeFn func() error
}

// cursor returns a streaming cursor over partition i; the caller closes it.
func (s *partStore[T]) cursor(i int) *partCursor[T] {
	c := &partCursor[T]{s: s, i: i}
	if s.files == nil || s.files[i] == "" {
		c.recs = s.mem[i]
	} else {
		c.spilled = true
	}
	return c
}

// next returns the partition's next record, or ok=false at its end.
func (c *partCursor[T]) next(ctx context.Context) (T, bool, error) {
	if c.spilled {
		var rec T
		var ok bool
		recs, recomputed, err := c.s.recoverRead(ctx, c.i, func() (rerr error) {
			if rec, ok, rerr = c.read(); rerr != nil {
				c.close()
			}
			return rerr
		})
		switch {
		case err != nil:
			return rec, false, err
		case !recomputed:
			return rec, ok, nil
		}
		c.close()
		c.spilled, c.recs = false, recs
	}
	if c.pos >= len(c.recs) {
		var zero T
		return zero, false, nil
	}
	c.pos++
	return c.recs[c.pos-1], true, nil
}

// read is one attempt at the next record from the spill file, opening it
// and skipping past the records already handed out when the previous
// reader was torn down by a fault.
func (c *partCursor[T]) read() (rec T, ok bool, err error) {
	if c.r == nil {
		if c.r, c.closeFn, err = spillOpen[T](c.s.eng.spill, c.s.files[c.i]); err != nil {
			return rec, false, err
		}
		for skip := 0; skip < c.pos; skip++ {
			if _, ok, err = c.r.next(); err != nil {
				return rec, false, err
			} else if !ok {
				return rec, false, corruptf("%s: partition %d ended at record %d while skipping to %d",
					c.s.site, c.i, skip, c.pos)
			}
		}
	}
	if rec, ok, err = c.r.next(); err != nil {
		return rec, false, err
	}
	if ok {
		c.pos++
	} else if c.pos != c.s.counts[c.i] {
		return rec, false, corruptf("%s: partition %d streamed %d records, store expected %d",
			c.s.site, c.i, c.pos, c.s.counts[c.i])
	}
	return rec, ok, nil
}

// close releases the cursor's open file, if any. Idempotent.
func (c *partCursor[T]) close() {
	if c.closeFn != nil {
		c.closeFn()
	}
	c.r, c.closeFn = nil, nil
}

// heal rewrites partition i's spill file from recomputed records,
// best-effort: the recovered records are already in hand, so a failed
// rewrite costs nothing now — the next read of a still-bad file just
// recovers again. The deterministic codec makes the healed file
// byte-identical to the original write.
func (s *partStore[T]) heal(i int, recs []T) {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	_, _ = spillWriteRetry(s.eng, s.site, s.names[i], i, recs)
}

// Size estimation. The budget gates which representation a materialization
// gets, not any release value, so an approximation is fine — but it must be
// a pure function of the data (never of timing or scheduling) or the spill
// decision itself would be nondeterministic for a fixed budget and input.
// estimateRecords samples up to sizeSampleRecords records, walks each with
// reflectSize, and extrapolates the mean; estimatePartsBytes sums that over
// the partitions.
const (
	sizeSampleRecords = 8
	sizeSampleElems   = 32
	sizeMaxDepth      = 4
)

func estimatePartsBytes[T any](parts [][]T) int64 {
	var total int64
	for _, p := range parts {
		total += estimateRecords(p)
	}
	return total
}

func estimateRecords[T any](recs []T) int64 {
	if len(recs) == 0 {
		return 0
	}
	stride := len(recs) / sizeSampleRecords
	if stride == 0 {
		stride = 1
	}
	var sampled, n int64
	for i := 0; i < len(recs); i += stride {
		sampled += reflectSize(reflect.ValueOf(recs[i]), sizeMaxDepth)
		n++
	}
	return sampled / n * int64(len(recs))
}

// reflectSize approximates the in-memory footprint of one value: the static
// type size plus the referenced bytes behind strings, slices, maps,
// pointers, and interfaces, sampling long containers and extrapolating.
func reflectSize(v reflect.Value, depth int) int64 {
	if !v.IsValid() {
		return 0
	}
	t := v.Type()
	size := int64(t.Size())
	if depth <= 0 {
		return size
	}
	switch v.Kind() {
	case reflect.String:
		size += int64(v.Len())
	case reflect.Slice:
		size += containerSize(v, depth)
	case reflect.Array:
		if elemHasPointers(t.Elem()) {
			size += containerSize(v, depth) - int64(t.Size())
		}
	case reflect.Map:
		n := v.Len()
		if n == 0 {
			break
		}
		sample := n
		if sample > sizeSampleElems {
			sample = sizeSampleElems
		}
		var per int64
		iter := v.MapRange()
		for i := 0; i < sample && iter.Next(); i++ {
			per += reflectSize(iter.Key(), depth-1) + reflectSize(iter.Value(), depth-1)
		}
		size += per / int64(sample) * int64(n)
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			size += reflectSize(v.Elem(), depth-1)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Array:
				// Static field size is already inside t.Size(); add only the
				// referenced bytes behind it.
				size += reflectSize(f, depth-1) - int64(f.Type().Size())
			}
		}
	}
	return size
}

// containerSize sums the dynamic footprint of a slice or array's elements,
// sampling long ones.
func containerSize(v reflect.Value, depth int) int64 {
	n := v.Len()
	if n == 0 {
		return 0
	}
	elem := v.Type().Elem()
	if !elemHasPointers(elem) {
		return int64(elem.Size()) * int64(n)
	}
	sample := n
	if sample > sizeSampleElems {
		sample = sizeSampleElems
	}
	var per int64
	for i := 0; i < sample; i++ {
		per += reflectSize(v.Index(i), depth-1)
	}
	return per / int64(sample) * int64(n)
}

// elemHasPointers reports whether a container element type drags referenced
// memory behind it (and so needs per-element walking).
func elemHasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}

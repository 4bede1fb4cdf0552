package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upa/internal/chaos"
)

// spillPipeline runs a fixed multi-stage job — map, filter, reduceByKey,
// join, global sort — on eng and returns its fully collected output. The
// pipeline is deterministic, so any two engines must produce identical
// results regardless of where their materializations live.
func spillPipeline(t *testing.T, eng *Engine) []Pair[int, int] {
	t.Helper()
	n := 3000
	raw := make([]int, n)
	for i := range raw {
		raw[i] = (i * 7919) % 1000 // collide keys, non-monotonic order
	}
	d, err := FromSlice(eng, raw, 8)
	if err != nil {
		t.Fatal(err)
	}
	pairs := Map(d, func(x int) Pair[int, int] { return Pair[int, int]{Key: x % 97, Value: x} })
	sums := ReduceByKey(pairs, func(a, b int) int { return a + b })
	counts := ReduceByKey(Map(pairs, func(p Pair[int, int]) Pair[int, int] {
		return Pair[int, int]{Key: p.Key, Value: 1}
	}), func(a, b int) int { return a + b })
	joined, err := Join(sums, counts)
	if err != nil {
		t.Fatal(err)
	}
	flat := Map(joined, func(p Pair[int, Joined[int, int]]) Pair[int, int] {
		return Pair[int, int]{Key: p.Key, Value: p.Value.Left / p.Value.Right}
	})
	sorted, err := SortBy(flat, 4, func(a, b Pair[int, int]) bool {
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Key < b.Key
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sorted.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSpillDeterminism is the tentpole's correctness gate in miniature: the
// same job on an unlimited budget (all in memory), a zero budget (every
// materialization spilled), and a mid budget (the working set straddles the
// line) must produce byte-identical output and identical work accounting —
// spilling changes where bytes live, never what they are.
func TestSpillDeterminism(t *testing.T) {
	type run struct {
		out     []Pair[int, int]
		metrics MetricsSnapshot
	}
	runWith := func(budget int64) run {
		eng := NewEngine(WithWorkers(4), WithMemoryBudget(budget))
		defer eng.Close()
		out := spillPipeline(t, eng)
		return run{out: out, metrics: eng.Metrics()}
	}
	encode := func(out []Pair[int, int]) []byte {
		var b bytes.Buffer
		for _, p := range out {
			fmt.Fprintf(&b, "%d=%d\n", p.Key, p.Value)
		}
		return b.Bytes()
	}

	ref := runWith(-1) // unlimited: the pure in-memory baseline
	if ref.metrics.SpilledBytes != 0 || ref.metrics.SpillFiles != 0 || ref.metrics.SpillReads != 0 {
		t.Fatalf("unlimited budget spilled: %+v", ref.metrics)
	}
	refBytes := encode(ref.out)

	cases := []struct {
		name      string
		budget    int64
		wantSpill bool
	}{
		{"spill-everything", 0, true},
		{"spill-partial", 16 << 10, true},
		{"spill-nothing-large", 1 << 30, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runWith(tc.budget)
			if !bytes.Equal(encode(got.out), refBytes) {
				t.Errorf("budget %d output differs from in-memory run", tc.budget)
			}
			if got.metrics.RecordsShuffled != ref.metrics.RecordsShuffled {
				t.Errorf("RecordsShuffled = %d, want %d", got.metrics.RecordsShuffled, ref.metrics.RecordsShuffled)
			}
			if got.metrics.ReduceOps != ref.metrics.ReduceOps {
				t.Errorf("ReduceOps = %d, want %d", got.metrics.ReduceOps, ref.metrics.ReduceOps)
			}
			if got.metrics.TasksRun != ref.metrics.TasksRun {
				t.Errorf("TasksRun = %d, want %d", got.metrics.TasksRun, ref.metrics.TasksRun)
			}
			if tc.wantSpill && got.metrics.SpilledBytes == 0 {
				t.Error("expected spilling, SpilledBytes = 0")
			}
			if tc.wantSpill && got.metrics.SpillReads == 0 {
				t.Error("expected spill reads, SpillReads = 0")
			}
			if !tc.wantSpill && got.metrics.SpillFiles != 0 {
				t.Errorf("unexpected spilling: %d files", got.metrics.SpillFiles)
			}
		})
	}
}

// TestSpillSurvivesFaults forces every materialization to disk while the
// chaos path retries tasks from lineage: the recovered output must still be
// byte-identical to a clean in-memory run, and no orphaned .tmp file may
// survive a retried spill write.
func TestSpillSurvivesFaults(t *testing.T) {
	clean := func() []Pair[int, int] {
		eng := NewEngine(WithWorkers(2))
		defer eng.Close()
		return spillPipeline(t, eng)
	}()

	inj := chaos.New(chaos.Policy{Seed: 3, TaskFaultRate: 0.2, ShuffleErrorRate: 0.2})
	eng := NewEngine(WithWorkers(2), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 6}), WithMemoryBudget(0), WithChaos(inj))
	defer eng.Close()
	got := spillPipeline(t, eng)

	if len(got) != len(clean) {
		t.Fatalf("faulty spilled run returned %d records, clean run %d", len(got), len(clean))
	}
	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("record %d: %v under faults+spill, %v clean", i, got[i], clean[i])
		}
	}
	m := eng.Metrics()
	if m.SpilledBytes == 0 {
		t.Error("budget 0 engine did not spill")
	}
	if m.TaskFaults == 0 {
		t.Error("no faults landed; test exercised nothing")
	}
	for _, f := range spillDirEntries(t, eng) {
		if strings.HasSuffix(f, ".tmp") {
			t.Errorf("orphaned partial spill file %s", f)
		}
	}
}

// TestSpillCleanupOnClose verifies the crash-safety contract at engine
// shutdown: the spill directory and every file in it are removed, and Close
// is idempotent.
func TestSpillCleanupOnClose(t *testing.T) {
	eng := NewEngine(WithMemoryBudget(0))
	d, err := FromSlice(eng, intsUpTo(500), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReduceByKey(Map(d, func(x int) Pair[int, int] {
		return Pair[int, int]{Key: x % 5, Value: x}
	}), func(a, b int) int { return a + b }).Collect(); err != nil {
		t.Fatal(err)
	}
	if eng.Metrics().SpillFiles == 0 {
		t.Fatal("budget 0 engine wrote no spill files")
	}
	dir := eng.spill.dir
	if dir == "" {
		t.Fatal("no spill directory recorded")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
		t.Fatalf("spill dir %s unreadable or empty before close: %v", dir, err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("spill dir %s survived Close (stat err: %v)", dir, err)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestEngineCloseWithoutSpill: an engine that never spilled has no directory
// to remove; Close must be a clean no-op.
func TestEngineCloseWithoutSpill(t *testing.T) {
	eng := NewEngine()
	if _, err := FromSlice(eng, intsUpTo(10), 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close on never-spilled engine: %v", err)
	}
}

// TestSortByPartitionsOwned is the regression test for the output-aliasing
// bug: SortBy's partitions were subslices of one shared sorted array, so a
// downstream stage mutating its input corrupted sibling partitions and every
// later read of the memoized sort. Each partition must be an owned copy.
func TestSortByPartitionsOwned(t *testing.T) {
	for _, budget := range []int64{-1, 0} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			eng := NewEngine(WithMemoryBudget(budget))
			defer eng.Close()
			d, err := FromSlice(eng, []int{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}, 3)
			if err != nil {
				t.Fatal(err)
			}
			sorted, err := SortBy(d, 2, func(a, b int) bool { return a < b })
			if err != nil {
				t.Fatal(err)
			}
			first, err := sorted.CollectPartitionsCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// A hostile downstream consumer scribbles over its input slices.
			for _, part := range first {
				for i := range part {
					part[i] = -1
				}
			}
			second, err := sorted.Collect()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range second {
				if v != i {
					t.Fatalf("sorted[%d] = %d after upstream mutation, want %d (partition aliases shared backing array)", i, v, i)
				}
			}
		})
	}
}

// TestShuffleInvalidPartitionCount is the regression test for the unguarded
// `% uint64(numParts)` in shuffle: a zero or negative destination count must
// come back as an error from the shuffle boundary, never a runtime panic in
// a worker goroutine. Public wide transformations validate their own counts,
// so the guard is exercised directly.
func TestShuffleInvalidPartitionCount(t *testing.T) {
	eng := NewEngine()
	d, err := FromSlice(eng, []Pair[int, int]{{Key: 1, Value: 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{0, -3} {
		if _, err := shuffle(context.Background(), d, bad); err == nil {
			t.Errorf("shuffle into %d partitions succeeded, want error", bad)
		}
	}
	if _, err := shuffle(context.Background(), d, 1); err != nil {
		t.Errorf("shuffle into 1 partition: %v", err)
	}
}

// TestSpillCodecRoundTrip covers the frame codec directly: batched records,
// an empty record set, and the streaming reader all round-trip exactly, and
// a truncated file is an error rather than a silent short read.
func TestSpillCodecRoundTrip(t *testing.T) {
	recs := make([]Pair[string, []int], 1200) // > 2 frames at spillBatch=512
	for i := range recs {
		recs[i] = Pair[string, []int]{Key: fmt.Sprintf("k%04d", i), Value: []int{i, i * 2}}
	}
	var buf bytes.Buffer
	n, err := writeSpill(&buf, recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("writeSpill reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := readSpill[Pair[string, []int]](bytes.NewReader(buf.Bytes()), int64(buf.Len()), len(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round-trip %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Key != recs[i].Key || len(got[i].Value) != 2 || got[i].Value[1] != recs[i].Value[1] {
			t.Fatalf("record %d corrupted: %v vs %v", i, got[i], recs[i])
		}
	}

	// Determinism across independent writes of the same records.
	var buf2 bytes.Buffer
	if _, err := writeSpill(&buf2, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two writes of identical records produced different bytes")
	}

	// Empty record set round-trips to an empty (not nil-error) read.
	var empty bytes.Buffer
	if _, err := writeSpill(&empty, []int(nil)); err != nil {
		t.Fatal(err)
	}
	if got, err := readSpill[int](bytes.NewReader(empty.Bytes()), int64(empty.Len()), 0); err != nil || len(got) != 0 {
		t.Fatalf("empty round-trip = %v, %v", got, err)
	}

	// Truncation mid-frame is a loud error.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := readSpill[Pair[string, []int]](bytes.NewReader(trunc), int64(len(trunc)), len(recs)); err == nil {
		t.Error("truncated spill file read without error")
	}
}

// TestMemoryBudgetAccessor pins the option plumbing and the default.
func TestMemoryBudgetAccessor(t *testing.T) {
	if got := NewEngine().MemoryBudget(); got >= 0 {
		t.Errorf("default MemoryBudget = %d, want negative (unlimited)", got)
	}
	if got := NewEngine(WithMemoryBudget(4096)).MemoryBudget(); got != 4096 {
		t.Errorf("MemoryBudget = %d, want 4096", got)
	}
}

// spillDirEntries lists the engine's spill directory, or nothing if it never
// spilled.
func spillDirEntries(t *testing.T, eng *Engine) []string {
	t.Helper()
	eng.spill.mu.Lock()
	dir := eng.spill.dir
	eng.spill.mu.Unlock()
	if dir == "" {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read spill dir: %v", err)
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, filepath.Join(dir, e.Name()))
	}
	return out
}

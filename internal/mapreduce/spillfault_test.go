package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"upa/internal/chaos"
	"upa/internal/checksum"
)

// TestSpillCorruptionEveryByte is the exhaustive detection gate: flipping any
// single byte of a spill file must yield either the identical records or a
// typed ErrSpillCorrupt — never silently different data. Every region of the
// format (magic, version, count, header CRC, frame uvarints, payload, frame
// CRC) is covered because every byte is.
func TestSpillCorruptionEveryByte(t *testing.T) {
	recs := make([]Pair[string, int], 40)
	for i := range recs {
		recs[i] = Pair[string, int]{Key: fmt.Sprintf("key-%02d", i), Value: i * 31}
	}
	var buf bytes.Buffer
	if _, err := writeSpill(&buf, recs); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	for off := 0; off < len(clean); off++ {
		for _, mask := range []byte{0x01, 0xFF} {
			mut := make([]byte, len(clean))
			copy(mut, clean)
			mut[off] ^= mask
			got, err := readSpill[Pair[string, int]](bytes.NewReader(mut), int64(len(mut)), len(recs))
			if err != nil {
				if !errors.Is(err, ErrSpillCorrupt) {
					t.Fatalf("offset %d mask %#x: error is not typed ErrSpillCorrupt: %v", off, mask, err)
				}
				continue
			}
			// A read that succeeds despite the flip must return the exact
			// original records (possible only if some byte were dead space —
			// the format has none, but the contract is what matters).
			if len(got) != len(recs) {
				t.Fatalf("offset %d mask %#x: silent record-count change %d != %d", off, mask, len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("offset %d mask %#x: silently different record %d: %v != %v", off, mask, i, got[i], recs[i])
				}
			}
		}
	}
}

// TestSpillTruncationEveryLength: every proper prefix of a spill file must
// fail loudly. Truncation at a frame boundary is the shape only the header
// record count can catch.
func TestSpillTruncationEveryLength(t *testing.T) {
	recs := intsUpTo(600) // two frames at spillBatch=512
	var buf bytes.Buffer
	if _, err := writeSpill(&buf, recs); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for n := 0; n < len(clean); n++ {
		_, err := readSpill[int](bytes.NewReader(clean[:n]), int64(n), len(recs))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes read without error", n, len(clean))
		}
		if !errors.Is(err, ErrSpillCorrupt) {
			t.Fatalf("prefix of %d bytes: error is not typed ErrSpillCorrupt: %v", n, err)
		}
	}
}

// TestSpillFrameCapNoOOM is the regression test for the unvalidated frame
// size: a corrupt uvarint demanding an absurd allocation must fail fast with
// a typed error — with or without a known file size — instead of attempting
// a multi-gigabyte make([]byte, n).
func TestSpillFrameCapNoOOM(t *testing.T) {
	var buf bytes.Buffer
	var hdr [spillHeaderLen]byte
	copy(hdr[:8], spillMagic)
	binary.LittleEndian.PutUint16(hdr[8:10], spillVersion)
	binary.LittleEndian.PutUint64(hdr[10:18], 1)
	binary.LittleEndian.PutUint32(hdr[18:22], checksum.Sum(hdr[:18]))
	buf.Write(hdr[:])
	var varint [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(varint[:], 1)
	buf.Write(varint[:n])
	n = binary.PutUvarint(varint[:], 1<<62) // frame claims 4 EiB
	buf.Write(varint[:n])

	for _, size := range []int64{-1, int64(buf.Len())} {
		_, err := readSpill[int](bytes.NewReader(buf.Bytes()), size, 1)
		if err == nil {
			t.Fatalf("size=%d: 4 EiB frame claim read without error", size)
		}
		if !errors.Is(err, ErrSpillCorrupt) {
			t.Fatalf("size=%d: error is not typed ErrSpillCorrupt: %v", size, err)
		}
	}

	// With a known file size, even a sub-cap claim larger than the remaining
	// bytes is rejected before allocation.
	var small bytes.Buffer
	small.Write(hdr[:])
	n = binary.PutUvarint(varint[:], 1)
	small.Write(varint[:n])
	n = binary.PutUvarint(varint[:], 1<<20) // 1 MiB claimed, ~0 bytes present
	small.Write(varint[:n])
	if _, err := readSpill[int](bytes.NewReader(small.Bytes()), int64(small.Len()), 1); !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("over-remaining frame claim: %v", err)
	}
}

// TestSpillHeaderValidation pins the header checks: wrong magic, a version
// from the future, and an empty file are all typed corruption errors.
func TestSpillHeaderValidation(t *testing.T) {
	mk := func(magic string, version uint16, fixCRC bool) []byte {
		var hdr [spillHeaderLen]byte
		copy(hdr[:8], magic)
		binary.LittleEndian.PutUint16(hdr[8:10], version)
		binary.LittleEndian.PutUint64(hdr[10:18], 0)
		if fixCRC {
			binary.LittleEndian.PutUint32(hdr[18:22], checksum.Sum(hdr[:18]))
		}
		return hdr[:]
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte(spillMagic)},
		{"bad-magic", mk("NOTSPILL", spillVersion, true)},
		{"future-version", mk(spillMagic, spillVersion+1, true)},
		{"bad-header-crc", mk(spillMagic, spillVersion, false)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := readSpill[int](bytes.NewReader(tc.data), int64(len(tc.data)), 0); !errors.Is(err, ErrSpillCorrupt) {
				t.Fatalf("read = %v, want ErrSpillCorrupt", err)
			}
			if err := verifySpill(bytes.NewReader(tc.data), int64(len(tc.data))); !errors.Is(err, ErrSpillCorrupt) {
				t.Fatalf("verify = %v, want ErrSpillCorrupt", err)
			}
		})
	}
}

// diskFaultPolicy is a chaos policy with only the given storage-fault rates
// armed — task-level fault injection stays off so the tests isolate the disk
// path.
func diskFaultPolicy(seed uint64, set func(p *chaos.Policy)) chaos.Policy {
	p := chaos.Policy{Seed: seed}
	set(&p)
	return p
}

// TestSpillENOSPCFallsBackToMemory: when the disk refuses every spill write
// (injected ENOSPC on each attempt), a budget-0 engine must degrade to
// in-memory retention — correct output, fallback and retry counters up, and
// no published spill files.
func TestSpillENOSPCFallsBackToMemory(t *testing.T) {
	clean := func() []Pair[int, int] {
		eng := NewEngine(WithWorkers(2))
		defer eng.Close()
		return spillPipeline(t, eng)
	}()

	eng := NewEngine(WithWorkers(2), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 4}), WithMemoryBudget(0),
		WithChaos(chaos.New(diskFaultPolicy(11, func(p *chaos.Policy) {
			p.DiskENOSPCRate = 0.999999 // every attempt, every file
		}))))
	defer eng.Close()
	got := spillPipeline(t, eng)

	if len(got) != len(clean) {
		t.Fatalf("ENOSPC run returned %d records, clean run %d", len(got), len(clean))
	}
	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("record %d: %v under ENOSPC, %v clean", i, got[i], clean[i])
		}
	}
	m := eng.Metrics()
	if m.SpillFallbacksInMemory == 0 {
		t.Error("no in-memory fallbacks recorded under total ENOSPC")
	}
	if m.SpillWriteRetries == 0 {
		t.Error("no write retries recorded under total ENOSPC")
	}
	if m.SpillFiles != 0 {
		t.Errorf("%d spill files published under total ENOSPC", m.SpillFiles)
	}
	cs := eng.Chaos().Snapshot()
	if cs.DiskENOSPCs == 0 {
		t.Error("injector recorded no ENOSPC decisions")
	}
	// No partial .tmp files may survive the failed writes.
	for _, f := range spillDirEntries(t, eng) {
		if strings.HasSuffix(f, ".tmp") {
			t.Errorf("orphaned partial spill file %s", f)
		}
	}
}

// TestSpillWriteFaultsRetryAndPublish: transient write errors, torn writes,
// and rename failures must be retried until a verified file lands — output
// byte-identical to a clean run, every published file structurally valid.
func TestSpillWriteFaultsRetryAndPublish(t *testing.T) {
	clean := func() []Pair[int, int] {
		eng := NewEngine(WithWorkers(2))
		defer eng.Close()
		return spillPipeline(t, eng)
	}()

	eng := NewEngine(WithWorkers(2), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 6}), WithMemoryBudget(0),
		WithChaos(chaos.New(diskFaultPolicy(5, func(p *chaos.Policy) {
			p.DiskWriteErrorRate = 0.2
			p.DiskTornWriteRate = 0.2
			p.DiskRenameErrorRate = 0.2
		}))))
	defer eng.Close()
	got := spillPipeline(t, eng)

	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("record %d: %v under write faults, %v clean", i, got[i], clean[i])
		}
	}
	m := eng.Metrics()
	if m.SpillWriteRetries == 0 {
		t.Error("no write retries recorded; raise the fault rates")
	}
	cs := eng.Chaos().Snapshot()
	if cs.DiskWriteErrors+cs.DiskTornWrites+cs.DiskRenameErrors == 0 {
		t.Error("no write-path faults landed; test exercised nothing")
	}
	// Torn writes are caught by verify-on-write, so every published file must
	// pass verification against the real filesystem.
	for _, f := range spillDirEntries(t, eng) {
		if strings.HasSuffix(f, ".tmp") {
			t.Errorf("orphaned partial spill file %s", f)
			continue
		}
		fh, err := os.Open(f)
		if err != nil {
			t.Fatalf("open %s: %v", f, err)
		}
		info, _ := fh.Stat()
		if err := verifySpill(fh, info.Size()); err != nil {
			t.Errorf("published spill file %s fails verification: %v", f, err)
		}
		fh.Close()
	}
}

// TestSpillReadFaultRecovery: injected read errors and in-flight corruption
// must be detected (typed, counted) and healed — by re-reads for transient
// faults and by lineage recomputation for lineage-backed stores — with the
// final output byte-identical to a clean run.
func TestSpillReadFaultRecovery(t *testing.T) {
	clean := func() []Pair[int, int] {
		eng := NewEngine(WithWorkers(2))
		defer eng.Close()
		return spillPipeline(t, eng)
	}()

	eng := NewEngine(WithWorkers(2), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 8}), WithMemoryBudget(0),
		WithChaos(chaos.New(diskFaultPolicy(23, func(p *chaos.Policy) {
			p.DiskReadErrorRate = 0.25
			p.DiskCorruptionRate = 0.25
		}))))
	defer eng.Close()
	got := spillPipeline(t, eng)

	if len(got) != len(clean) {
		t.Fatalf("faulty run returned %d records, clean run %d", len(got), len(clean))
	}
	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("record %d: %v under read faults, %v clean", i, got[i], clean[i])
		}
	}
	m := eng.Metrics()
	cs := eng.Chaos().Snapshot()
	if cs.DiskCorruptions == 0 && cs.DiskReadErrors == 0 {
		t.Fatal("no read-path faults landed; test exercised nothing")
	}
	if cs.DiskCorruptions > 0 && m.SpillCorruptionsDetected == 0 {
		t.Error("corruption injected but never detected")
	}
}

// TestSpillRecomputeFromLineage drives the recovery path deterministically:
// a lineage-backed store's spill files are corrupted on disk (not in
// flight), so every re-read fails its checksum and only lineage
// recomputation can produce the records — which must match, bump
// SpillRecomputes, and heal the file for the next reader. The shuffle
// case reads whole buckets; the sortBy case streams its runs through the
// merge's cursors.
func TestSpillRecomputeFromLineage(t *testing.T) {
	cases := []struct {
		name  string
		match string // spill file name fragment of the store to rot
		build func(t *testing.T, d *Dataset[int]) *Dataset[int]
	}{
		{"shuffle", "shuffle", func(t *testing.T, d *Dataset[int]) *Dataset[int] {
			keyed := KeyBy(d, func(x int) int { return x % 7 })
			return Values(ReduceByKey(keyed, func(a, b int) int { return a + b }))
		}},
		{"sortBy", "sortBy", func(t *testing.T, d *Dataset[int]) *Dataset[int] {
			sorted, err := SortBy(d, 3, func(a, b int) bool { return a > b })
			if err != nil {
				t.Fatal(err)
			}
			return sorted
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(WithMemoryBudget(0), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 3}))
			defer eng.Close()
			d, err := FromSlice(eng, intsUpTo(300), 2)
			if err != nil {
				t.Fatal(err)
			}
			ds := tc.build(t, d)
			first, err := ds.Collect()
			if err != nil {
				t.Fatal(err)
			}

			// Rot every matching spill file on disk: flip one payload byte in place.
			var rotted int
			for _, f := range spillDirEntries(t, eng) {
				if !strings.Contains(f, tc.match) {
					continue
				}
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-5] ^= 0xFF // inside the last frame's payload or CRC
				if err := os.WriteFile(f, data, 0o644); err != nil {
					t.Fatal(err)
				}
				rotted++
			}
			if rotted == 0 {
				t.Fatalf("no %s spill files found to corrupt", tc.match)
			}

			second, err := ds.Collect()
			if err != nil {
				t.Fatalf("collect after on-disk rot: %v", err)
			}
			if len(second) != len(first) {
				t.Fatalf("recovered %d records, want %d", len(second), len(first))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("value %d: %d before rot, %d recovered", i, first[i], second[i])
				}
			}
			m := eng.Metrics()
			if m.SpillCorruptionsDetected == 0 {
				t.Error("on-disk rot never detected")
			}
			if m.SpillRecomputes == 0 {
				t.Error("no lineage recomputation recorded")
			}

			// The heal rewrote the files: a third read must succeed without
			// another recomputation.
			recomputes := m.SpillRecomputes
			if _, err := ds.Collect(); err != nil {
				t.Fatalf("collect after heal: %v", err)
			}
			if got := eng.Metrics().SpillRecomputes; got != recomputes {
				t.Errorf("healed file recomputed again: %d -> %d", recomputes, got)
			}
		})
	}
}

// TestSpillSourceRotFailsLoudly: a source store has no lineage to recompute
// from, so unrecoverable on-disk rot of its files must surface as a typed
// error — honest failure, never silently wrong records.
func TestSpillSourceRotFailsLoudly(t *testing.T) {
	eng := NewEngine(WithMemoryBudget(0), WithRetryPolicy(chaos.RetryPolicy{MaxAttempts: 2}))
	defer eng.Close()
	d, err := FromSlice(eng, intsUpTo(200), 2)
	if err != nil {
		t.Fatal(err)
	}
	files := spillDirEntries(t, eng)
	if len(files) == 0 {
		t.Fatal("budget-0 source wrote no spill files")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[spillHeaderLen+3] ^= 0xFF
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err = d.Collect()
	if err == nil {
		t.Fatal("collect over rotted irreproducible source succeeded")
	}
	if !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("error is not typed ErrSpillCorrupt: %v", err)
	}
}

// TestSpillStoreCloseRace is the -race regression test for close racing
// in-flight I/O: concurrent spill writes, streaming reads, and whole-file
// reads during Close must each either complete cleanly or fail with the
// typed closed error — never crash, never read a yanked file, never strand
// the temp directory.
func TestSpillStoreCloseRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		eng := NewEngine(WithMemoryBudget(0))
		recs := intsUpTo(500)
		seed, err := spillWrite(eng.spill, "seed.spill", recs)
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		fail := func(op string, err error) {
			if err != nil && !errors.Is(err, errSpillClosed) {
				t.Errorf("%s during close: %v", op, err)
			}
		}
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					_, err := spillWrite(eng.spill, fmt.Sprintf("race-%d-%d.spill", g, i), recs)
					if err != nil {
						fail("write", err)
						return
					}
				}
			}(g)
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					r, closeFn, err := spillOpen[int](eng.spill, seed)
					if err != nil {
						fail("open", err)
						return
					}
					for {
						_, ok, err := r.next()
						if err != nil || !ok {
							fail("stream", err)
							break
						}
					}
					closeFn()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				if _, err := spillRead[int](eng.spill, seed, len(recs)); err != nil {
					fail("read", err)
					return
				}
			}
		}()

		dir := eng.SpillDir()
		close(start)
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("spill dir %s survived Close (stat err: %v)", dir, err)
		}
	}
}

// TestChaosFSDeterministicFates pins the fault model's coordinates: the same
// (seed, op, file, attempt) always draws the same fate, and a different seed
// draws independently.
func TestChaosFSDeterministicFates(t *testing.T) {
	outcome := func(seed uint64) []bool {
		inj := chaos.New(diskFaultPolicy(seed, func(p *chaos.Policy) {
			p.DiskWriteErrorRate = 0.5
		}))
		fs := newChaosFS(osFS{}, inj)
		dir := t.TempDir()
		var fates []bool
		for i := 0; i < 32; i++ {
			f, err := fs.Create(fmt.Sprintf("%s/f-%02d.spill", dir, i))
			fates = append(fates, err != nil)
			if err == nil {
				f.Close()
			}
		}
		return fates
	}
	a, b := outcome(42), outcome(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fate %d differs across identical seeds", i)
		}
	}
	c := outcome(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 42 and 43 drew identical fates at every site; hash is not mixing the seed")
	}
}

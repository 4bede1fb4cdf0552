package mapreduce

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"upa/internal/chaos"
)

// spillFS abstracts the filesystem operations the spill store performs, so
// the chaos layer can inject storage faults — write errors, ENOSPC, torn
// writes, rename failures, read errors, in-flight corruption — underneath
// the real codec and recovery paths instead of around them. Every engine
// wraps osFS in chaosFS, which is passthrough without an injector.
type spillFS interface {
	// MkdirTemp creates the spill directory.
	MkdirTemp(pattern string) (string, error)
	// Create opens path for writing (truncating any existing file).
	Create(path string) (spillFile, error)
	// Open opens path for reading and reports its size in bytes.
	Open(path string) (spillFile, int64, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	RemoveAll(path string) error
}

// spillFile is the I/O surface one spill read or write needs.
type spillFile interface {
	io.Reader
	io.Writer
	Close() error
}

// osFS is the passthrough implementation over the real filesystem.
type osFS struct{}

func (osFS) MkdirTemp(pattern string) (string, error) { return os.MkdirTemp("", pattern) }

func (osFS) Create(path string) (spillFile, error) { return os.Create(path) }

func (osFS) Open(path string) (spillFile, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }

// spillSite is the chaos site label for every spill-store disk decision; the
// file name (deterministic per store) and per-file attempt counter carry the
// remaining coordinates.
const spillSite = "spill"

// chaosFS wraps an inner spillFS with the engine's seeded fault injector.
// Each create/open of a file draws its fate once, at stable coordinates
// (site, file base name, per-file attempt number), so the same logical
// write or read fails the same way on every run with the same seed — and a
// retry, being a later attempt, re-rolls like a real transient fault would.
// A nil injector makes every decision false and chaosFS is pure
// passthrough.
type chaosFS struct {
	inner spillFS
	inj   *chaos.Injector

	mu       sync.Mutex
	attempts map[string]int // per (op, file base name) attempt counters
}

func newChaosFS(inner spillFS, inj *chaos.Injector) *chaosFS {
	return &chaosFS{inner: inner, inj: inj, attempts: make(map[string]int)}
}

// attempt bumps and returns the attempt counter for one (op, file) pair.
func (c *chaosFS) attempt(op, file string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := op + "\x00" + file
	c.attempts[key]++
	return c.attempts[key]
}

func (c *chaosFS) MkdirTemp(pattern string) (string, error) { return c.inner.MkdirTemp(pattern) }

func (c *chaosFS) Create(path string) (spillFile, error) {
	file := filepath.Base(path)
	attempt := c.attempt("create", file)
	if c.inj.DiskWriteError(spillSite, file, attempt) {
		return nil, fmt.Errorf("%w: disk write error creating %s (attempt %d)", chaos.ErrInjected, file, attempt)
	}
	f, err := c.inner.Create(path)
	if err != nil {
		return nil, err
	}
	// Decide the write's whole fate here, at the stable coordinates, rather
	// than per Write call (whose count depends on bufio flush boundaries).
	switch {
	case c.inj.DiskENOSPC(spillSite, file, attempt):
		allow := int64(c.inj.DiskVariate(spillSite, file, attempt) % 4096)
		return &enospcFile{f: f, allow: allow, file: file}, nil
	case c.inj.DiskTornWrite(spillSite, file, attempt):
		allow := int64(c.inj.DiskVariate(spillSite, file, attempt) % 2048)
		return &tornFile{f: f, allow: allow}, nil
	}
	return f, nil
}

func (c *chaosFS) Open(path string) (spillFile, int64, error) {
	file := filepath.Base(path)
	attempt := c.attempt("open", file)
	if c.inj.DiskReadError(spillSite, file, attempt) {
		return nil, 0, fmt.Errorf("%w: disk read error opening %s (attempt %d)", chaos.ErrInjected, file, attempt)
	}
	f, size, err := c.inner.Open(path)
	if err != nil {
		return nil, 0, err
	}
	if c.inj.DiskCorruption(spillSite, file, attempt) && size > 0 {
		v := c.inj.DiskVariate(spillSite, file, attempt)
		return &corruptFile{
			f:   f,
			off: int64(v % uint64(size)),
			// The XOR mask must be nonzero or the "corruption" would be a
			// no-op; fold the high bits in and force the low bit.
			xor: byte(v>>32) | 1,
		}, size, nil
	}
	return f, size, nil
}

func (c *chaosFS) Rename(oldPath, newPath string) error {
	file := filepath.Base(newPath)
	attempt := c.attempt("rename", file)
	if c.inj.DiskRenameError(spillSite, file, attempt) {
		return fmt.Errorf("%w: rename to %s failed (attempt %d)", chaos.ErrInjected, file, attempt)
	}
	return c.inner.Rename(oldPath, newPath)
}

func (c *chaosFS) Remove(path string) error    { return c.inner.Remove(path) }
func (c *chaosFS) RemoveAll(path string) error { return c.inner.RemoveAll(path) }

// enospcFile admits the first `allow` bytes, then fails the write with an
// injected ENOSPC — a partially written temp file is left behind, exactly
// like a real full disk.
type enospcFile struct {
	f       spillFile
	allow   int64
	written int64
	file    string
}

func (e *enospcFile) Write(p []byte) (int, error) {
	if e.written >= e.allow {
		return 0, fmt.Errorf("%w: writing %s", chaos.ErrNoSpace, e.file)
	}
	keep := int64(len(p))
	if e.written+keep > e.allow {
		keep = e.allow - e.written
	}
	n, err := e.f.Write(p[:keep])
	e.written += int64(n)
	if err != nil {
		return n, err
	}
	if int64(len(p)) > keep {
		return n, fmt.Errorf("%w: writing %s", chaos.ErrNoSpace, e.file)
	}
	return n, nil
}

func (e *enospcFile) Read(p []byte) (int, error) { return e.f.Read(p) }

func (e *enospcFile) Close() error {
	cerr := e.f.Close()
	if e.written <= e.allow {
		// The whole file fit in the space that was left, so no Write failed —
		// but the disk is still full, and the failure surfaces at close the
		// way delayed allocation does. Without this, an injected ENOSPC fate
		// would silently pass for any file smaller than the allowance.
		return fmt.Errorf("%w: closing %s", chaos.ErrNoSpace, e.file)
	}
	return cerr
}

// tornFile silently discards every byte past `allow` while reporting full
// success — the torn-write failure mode where the OS acknowledged a write
// that never reached the platter. Close also succeeds, so the writer
// publishes a truncated file that only end-to-end checksums and record
// counts can catch.
type tornFile struct {
	f       spillFile
	allow   int64
	written int64
}

func (t *tornFile) Write(p []byte) (int, error) {
	keep := t.allow - t.written
	if keep < 0 {
		keep = 0
	}
	if keep > int64(len(p)) {
		keep = int64(len(p))
	}
	if keep > 0 {
		n, err := t.f.Write(p[:keep])
		t.written += int64(n)
		if err != nil {
			return n, err
		}
	}
	t.written += int64(len(p)) - keep
	return len(p), nil
}

func (t *tornFile) Read(p []byte) (int, error) { return t.f.Read(p) }
func (t *tornFile) Close() error               { return t.f.Close() }

// corruptFile flips one byte of the stream at a fixed offset as it passes
// through. The on-disk file stays intact — this models a transient
// controller/DMA corruption — so a retried read (a later attempt) sees
// clean bytes.
type corruptFile struct {
	f   spillFile
	off int64
	xor byte
	pos int64
}

func (c *corruptFile) Read(p []byte) (int, error) {
	n, err := c.f.Read(p)
	if n > 0 && c.off >= c.pos && c.off < c.pos+int64(n) {
		p[c.off-c.pos] ^= c.xor
	}
	c.pos += int64(n)
	return n, err
}

func (c *corruptFile) Write(p []byte) (int, error) { return c.f.Write(p) }
func (c *corruptFile) Close() error                { return c.f.Close() }

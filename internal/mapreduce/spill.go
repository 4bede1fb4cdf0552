package mapreduce

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"upa/internal/checksum"
)

// Spill file format v2: a checksummed header followed by a sequence of
// independent, checksummed, length-prefixed frames, each holding one
// gob-encoded batch of records.
//
//	file    := header frame*
//	header  := magic("UPASPILL") version(uint16 LE) count(uint64 LE) crc32c(header[0:18])
//	frame   := uvarint(nrecs) uvarint(len(payload)) payload crc32c(payload)
//	payload := gob([]T)            // fresh encoder per frame
//
// The header records the total record count so truncation at a frame
// boundary — the one torn-write shape per-frame checksums cannot see — is
// still detected; the per-frame record count lets verifySpill audit a file
// without paying for gob decode. All checksums are CRC-32C
// (internal/checksum). Any mismatch, short read, oversized frame, or
// header/count disagreement surfaces as an error wrapping ErrSpillCorrupt:
// the storage layer distrusts the disk, and corruption is detected
// deterministically at read time rather than decoded into silently wrong
// records (and from there into a wrong released DP answer).
//
// Every frame is self-contained (its own gob type descriptors), so a reader
// can stream record-by-record holding at most one decoded batch in memory —
// which is what SortBy's k-way merge needs.
//
// The codec must be deterministic: a retried task that rewrites its spill
// file must produce the same bytes, or lineage recomputation under chaos
// would diverge. gob encodes slices, strings, numbers, and structs of those
// deterministically; the one caveat is Go maps (iteration order leaks into
// the encoding), so record types routed through the spill path must not
// contain map fields. Nothing in the engine's own record flow (Pair, State
// vectors, relation rows) does. Note also that gob cannot distinguish a nil
// slice from an empty one: both decode as nil, which is invisible to every
// value-semantics consumer but would matter to code comparing against nil.

// ErrSpillCorrupt marks a spill file whose bytes fail integrity checks —
// bad magic, checksum mismatch, truncation, impossible frame size, or a
// record count that disagrees with the header. It is typed so the partition
// store can distinguish "the disk lied" (recoverable by recomputing the
// partition from lineage) from ordinary I/O errors.
var ErrSpillCorrupt = errors.New("mapreduce: spill file corrupt")

const (
	spillMagic   = "UPASPILL"
	spillVersion = 2
	// spillHeaderLen is magic(8) + version(2) + count(8) + crc(4).
	spillHeaderLen = 8 + 2 + 8 + 4
	// maxSpillFrame caps a single frame's payload when the reader does not
	// know the file size (callers that do pass the size get the tighter
	// remaining-bytes bound). A corrupt uvarint must not be able to demand
	// a 2^60-byte allocation and OOM the process; 1 GiB is orders of
	// magnitude above any real spillBatch encoding yet small enough to fail
	// fast.
	maxSpillFrame = 1 << 30
)

// spillBatch is the records-per-frame granularity: large enough to amortize
// the per-frame gob descriptors, small enough that a streaming reader's
// resident batch stays far below any sensible memory budget.
const spillBatch = 512

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSpillCorrupt, fmt.Sprintf(format, args...))
}

// writeSpill encodes recs as a v2 spill stream onto w and returns the byte
// count written (header included).
func writeSpill[T any](w io.Writer, recs []T) (int64, error) {
	bw := bufio.NewWriter(w)
	var hdr [spillHeaderLen]byte
	copy(hdr[:8], spillMagic)
	binary.LittleEndian.PutUint16(hdr[8:10], spillVersion)
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(len(recs)))
	binary.LittleEndian.PutUint32(hdr[18:22], checksum.Sum(hdr[:18]))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	written := int64(spillHeaderLen)

	var payload bytes.Buffer
	var varint [2 * binary.MaxVarintLen64]byte
	var crc [4]byte
	for lo := 0; lo < len(recs); lo += spillBatch {
		hi := lo + spillBatch
		if hi > len(recs) {
			hi = len(recs)
		}
		payload.Reset()
		if err := gob.NewEncoder(&payload).Encode(recs[lo:hi]); err != nil {
			return written, fmt.Errorf("mapreduce: spill encode: %w", err)
		}
		n := binary.PutUvarint(varint[:], uint64(hi-lo))
		n += binary.PutUvarint(varint[n:], uint64(payload.Len()))
		if _, err := bw.Write(varint[:n]); err != nil {
			return written, err
		}
		if _, err := bw.Write(payload.Bytes()); err != nil {
			return written, err
		}
		binary.LittleEndian.PutUint32(crc[:], checksum.Sum(payload.Bytes()))
		if _, err := bw.Write(crc[:]); err != nil {
			return written, err
		}
		written += int64(n + payload.Len() + 4)
	}
	return written, bw.Flush()
}

// spillReader streams records back out of a spill file, decoding one frame
// at a time and verifying every checksum on the way.
type spillReader[T any] struct {
	br    *bufio.Reader
	batch []T
	pos   int
	// remaining is the byte count left in the file when the caller knows it
	// (size >= 0 at construction), used to bound frame allocations; -1
	// means unknown and maxSpillFrame applies alone.
	remaining int64
	gotHeader bool
	// want/seen track the header's record count against records actually
	// decoded, so truncation at a frame boundary is caught at EOF.
	want uint64
	seen uint64
}

// newSpillReader wraps r. size is the total stream length in bytes when
// known (it tightens the frame-allocation bound), or -1 when unknown.
func newSpillReader[T any](r io.Reader, size int64) *spillReader[T] {
	if size < 0 {
		size = -1
	}
	return &spillReader[T]{br: bufio.NewReader(r), remaining: size}
}

// next returns the next record, or ok=false at a clean end of stream. A
// truncated or corrupt frame is an error wrapping ErrSpillCorrupt, never a
// silent short read.
func (r *spillReader[T]) next() (rec T, ok bool, err error) {
	var zero T
	for r.pos >= len(r.batch) {
		if err := r.readFrame(); err != nil {
			if err == io.EOF {
				if r.seen != r.want {
					return zero, false, corruptf("stream ended after %d of %d records", r.seen, r.want)
				}
				return zero, false, nil
			}
			return zero, false, err
		}
	}
	rec = r.batch[r.pos]
	r.pos++
	r.seen++
	return rec, true, nil
}

// readHeader consumes and validates the file header.
func (r *spillReader[T]) readHeader() error {
	var hdr [spillHeaderLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return corruptf("header truncated: %v", err)
	}
	if string(hdr[:8]) != spillMagic {
		return corruptf("bad magic %q", hdr[:8])
	}
	if got := binary.LittleEndian.Uint32(hdr[18:22]); got != checksum.Sum(hdr[:18]) {
		return corruptf("header checksum mismatch")
	}
	// Checksum verified after magic so a corrupt version byte reads as
	// corruption, while a genuinely newer format (good checksum, higher
	// version) reads as incompatibility.
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != spillVersion {
		return corruptf("unsupported format version %d (want %d)", v, spillVersion)
	}
	r.want = binary.LittleEndian.Uint64(hdr[10:18])
	if r.remaining >= 0 {
		r.remaining -= spillHeaderLen
		if r.remaining < 0 {
			return corruptf("file shorter than its header")
		}
	}
	r.gotHeader = true
	return nil
}

// readFrame decodes the next frame into r.batch. io.EOF means a clean end.
func (r *spillReader[T]) readFrame() error {
	if !r.gotHeader {
		if err := r.readHeader(); err != nil {
			return err
		}
	}
	nrecs, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return corruptf("frame header: %v", err)
	}
	size, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("frame header: %v", err)
	}
	// Bound the allocation before trusting the on-disk size: a corrupt
	// uvarint can otherwise demand an absurd make([]byte, size).
	if size > maxSpillFrame {
		return corruptf("frame claims %d bytes (cap %d)", size, maxSpillFrame)
	}
	if r.remaining >= 0 {
		overhead := int64(uvarintLen(nrecs) + uvarintLen(size) + 4)
		if int64(size)+overhead > r.remaining {
			return corruptf("frame claims %d bytes with %d left in file", size, r.remaining)
		}
		r.remaining -= int64(size) + overhead
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return corruptf("frame truncated: %v", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r.br, crc[:]); err != nil {
		return corruptf("frame checksum truncated: %v", err)
	}
	if binary.LittleEndian.Uint32(crc[:]) != checksum.Sum(payload) {
		return corruptf("frame checksum mismatch")
	}
	// Decode into a fresh slice every frame: gob reuses existing backing
	// arrays — including the inner slices of elements decoded earlier — so
	// recycling the batch would let frame n+1 scribble over records already
	// handed out of frame n (their struct copies share those inner arrays).
	r.batch = nil
	r.pos = 0
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&r.batch); err != nil {
		// The checksum passed, so these bytes are what the writer wrote;
		// still corruption from the consumer's view (e.g. a torn write that
		// happened to survive framing), never data to silently trust.
		return corruptf("frame decode: %v", err)
	}
	if uint64(len(r.batch)) != nrecs {
		return corruptf("frame decoded %d records, header said %d", len(r.batch), nrecs)
	}
	return nil
}

// readSpill decodes a whole spill stream into an owned slice. size is the
// stream length in bytes when known, or -1. count sizes the allocation (the
// store records it at write time); a wrong count only costs a reallocation.
func readSpill[T any](r io.Reader, size int64, count int) ([]T, error) {
	out := make([]T, 0, count)
	sr := newSpillReader[T](r, size)
	for {
		rec, ok, err := sr.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, rec)
	}
}

// verifySpill walks a spill stream checking structural integrity — header
// checksum, every frame checksum, and the header record count against the
// per-frame counts — without decoding any records. The spill store runs it
// after every write, so a torn write (silently dropped tail bytes that
// still reported success) is caught while the writer still has the records
// in hand to retry, instead of surfacing at some much later read.
func verifySpill(r io.Reader, size int64) error {
	br := bufio.NewReader(r)
	var hdr [spillHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return corruptf("header truncated: %v", err)
	}
	if string(hdr[:8]) != spillMagic {
		return corruptf("bad magic %q", hdr[:8])
	}
	if got := binary.LittleEndian.Uint32(hdr[18:22]); got != checksum.Sum(hdr[:18]) {
		return corruptf("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != spillVersion {
		return corruptf("unsupported format version %d (want %d)", v, spillVersion)
	}
	want := binary.LittleEndian.Uint64(hdr[10:18])
	remaining := size - spillHeaderLen
	if size >= 0 && remaining < 0 {
		return corruptf("file shorter than its header")
	}
	var seen uint64
	buf := make([]byte, 64<<10)
	for {
		nrecs, err := binary.ReadUvarint(br)
		if err != nil {
			if err == io.EOF {
				if seen != want {
					return corruptf("stream ended after %d of %d records", seen, want)
				}
				return nil
			}
			return corruptf("frame header: %v", err)
		}
		fsize, err := binary.ReadUvarint(br)
		if err != nil {
			return corruptf("frame header: %v", err)
		}
		if fsize > maxSpillFrame {
			return corruptf("frame claims %d bytes (cap %d)", fsize, maxSpillFrame)
		}
		if size >= 0 {
			overhead := int64(uvarintLen(nrecs) + uvarintLen(fsize) + 4)
			if int64(fsize)+overhead > remaining {
				return corruptf("frame claims %d bytes with %d left in file", fsize, remaining)
			}
			remaining -= int64(fsize) + overhead
		}
		crc := uint32(0)
		left := fsize
		for left > 0 {
			n := uint64(len(buf))
			if n > left {
				n = left
			}
			if _, err := io.ReadFull(br, buf[:n]); err != nil {
				return corruptf("frame truncated: %v", err)
			}
			crc = checksum.Update(crc, buf[:n])
			left -= n
		}
		var tail [4]byte
		if _, err := io.ReadFull(br, tail[:]); err != nil {
			return corruptf("frame checksum truncated: %v", err)
		}
		if binary.LittleEndian.Uint32(tail[:]) != crc {
			return corruptf("frame checksum mismatch")
		}
		seen += nrecs
	}
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

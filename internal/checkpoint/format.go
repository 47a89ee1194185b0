// Package checkpoint implements the durable on-disk state of incremental
// discovery: a versioned, self-validating snapshot of the Accumulator's
// pair statistics plus an append-only batch WAL, so a killed streaming
// process resumes losing at most the one unsynced tail batch.
//
// Both hold the statistics in one layout, the one batch discovery counts
// into: per stratum (= per attribute) a count triangle of k(k+1)/2
// float64s — for l ≤ m, the number of the stratum's pairs agreeing on
// attributes l and m, packed row by row — plus the pair total every
// triangle is over. Under MaxRows a batch of n rows contributes
// min(n, MaxRows) pairs, so the pair total can be below the row total.
//
// # Snapshot format (version 2)
//
// A snapshot is a 16-byte prologue followed by framed sections:
//
//	offset  size  field
//	0       8     magic "FDXCKPT1"
//	8       4     format version, little-endian uint32
//	12      4     reserved flags (zero)
//
//	section frame (repeated):
//	0       4     section ID, little-endian uint32
//	4       8     payload length, little-endian uint64
//	12      n     payload
//	12+n    4     CRC32C over ID + length + payload
//
// The sections, all required:
//
//	1  meta      fingerprint u64, rows u64, batches u64, pairs u64, k u32,
//	             then k attribute names (u32 length + bytes)
//	2  counts    k count triangles, k·k(k+1)/2 float64s
//	5  coverage  u32 interval count, then [lo, hi) u64 pairs of global
//	             batch indices
//	0  end       zero-length terminator, last
//
// Sections appear in any order after meta; readers skip unknown IDs (still
// CRC-checked) so minor format additions stay readable. IDs 3 and 4 held
// version 1's per-stratum sums and k×k outer products and are not reused.
// The versioning recipe: a new optional field gets a new section ID (old
// readers skip it); a change old readers would misinterpret bumps the
// version, which they reject with ErrCheckpointVersion — as this build
// rejects version 1.
//
// # WAL format
//
// The WAL is a sequence of records, each fsynced on append:
//
//	0    4    payload length, little-endian uint32
//	4    n    payload (one encoded core.BatchDelta)
//	4+n  4    CRC32C over length + payload
//
// A payload is seq u64, rows u64, pairs u64, k u32, global u64, then the
// batch's k count triangles as k·k(k+1)/2 float64s.
//
// A record that runs past end-of-file, or whose CRC fails with no bytes
// after it, is a torn tail from a crash mid-append: replay stops there and
// truncates the file. A CRC failure with valid bytes after it cannot come
// from a torn append and is reported as ErrCorruptCheckpoint.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"

	"fdx/internal/faults"
	"fdx/internal/fdxerr"
)

const (
	// magic identifies a snapshot file; the trailing byte doubles as a
	// human-readable format generation.
	magic = "FDXCKPT1"
	// version is the snapshot format version this build reads and writes.
	version = 2

	// Section IDs of the version-2 snapshot.
	secEnd    = 0 // zero-length terminator
	secMeta   = 1 // fingerprint, counters, attribute names
	secCounts = 2 // per-stratum count triangles
	secRanges = 5 // batch-coverage intervals

	// maxSectionLen bounds a section (and WAL record) payload so a
	// corrupted length field cannot demand an absurd allocation.
	maxSectionLen = 1 << 27
	// maxAttrs bounds the attribute count a snapshot may claim. The counts
	// section is 4·k²(k+1) bytes — 67 MB at k = 256 — so the bound keeps
	// it, and a WAL record, under maxSectionLen.
	maxAttrs = 256
)

// castagnoli is the CRC32C table used for every checksum in the format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// enc is a little-endian append-only payload builder.
type enc struct{ buf []byte }

func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// dec is a little-endian payload reader; every getter reports whether the
// payload still had enough bytes.
type dec struct{ buf []byte }

func (d *dec) u32() (uint32, bool) {
	if len(d.buf) < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v, true
}

func (d *dec) u64() (uint64, bool) {
	if len(d.buf) < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, true
}

func (d *dec) f64() (float64, bool) {
	v, ok := d.u64()
	return math.Float64frombits(v), ok
}

func (d *dec) str() (string, bool) {
	n, ok := d.u32()
	if !ok || uint64(n) > uint64(len(d.buf)) {
		return "", false
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, true
}

// frameCRC checksums a section or WAL record frame (header + payload).
func frameCRC(header, payload []byte) uint32 {
	c := crc32.Update(0, castagnoli, header)
	return crc32.Update(c, castagnoli, payload)
}

// writeSection frames and writes one snapshot section.
func writeSection(w io.Writer, id uint32, payload []byte) error {
	var h enc
	h.u32(id)
	h.u64(uint64(len(payload)))
	crc := frameCRC(h.buf, payload)
	if err := writeFull(w, h.buf); err != nil {
		return err
	}
	if err := writeFull(w, payload); err != nil {
		return err
	}
	var tail enc
	tail.u32(crc)
	return writeFull(w, tail.buf)
}

// readSection reads and validates one section frame.
func readSection(r io.Reader) (id uint32, payload []byte, err error) {
	header := make([]byte, 12)
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, nil, fdxerr.Corrupt("checkpoint: truncated section header (%v)", err)
	}
	id = binary.LittleEndian.Uint32(header)
	n := binary.LittleEndian.Uint64(header[4:])
	if n > maxSectionLen {
		return 0, nil, fdxerr.Corrupt("checkpoint: section %d claims %d bytes (max %d)", id, n, maxSectionLen)
	}
	// CopyN into a buffer grows with the bytes actually present, so a lying
	// length on a truncated file cannot force a huge allocation.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return 0, nil, fdxerr.Corrupt("checkpoint: truncated section %d payload (%v)", id, err)
	}
	payload = buf.Bytes()
	tail := make([]byte, 4)
	if _, err := io.ReadFull(r, tail); err != nil {
		return 0, nil, fdxerr.Corrupt("checkpoint: truncated section %d checksum (%v)", id, err)
	}
	if got, want := frameCRC(header, payload), binary.LittleEndian.Uint32(tail); got != want {
		return 0, nil, fdxerr.Corrupt("checkpoint: section %d checksum mismatch (%08x != %08x)", id, got, want)
	}
	return id, payload, nil
}

// writeFull writes b completely, surfacing short writes (including the
// armed ShortWrite fault) as ErrCorruptCheckpoint-wrapped errors.
func writeFull(w io.Writer, b []byte) error {
	if len(b) > 0 && faults.Fire(faults.ShortWrite) {
		n, _ := w.Write(b[:len(b)/2])
		return fdxerr.Corrupt("checkpoint: short write: %d of %d bytes (injected)", n, len(b))
	}
	n, err := w.Write(b)
	if err != nil {
		return fdxerr.Corrupt("checkpoint: write: %v", err)
	}
	if n != len(b) {
		return fdxerr.Corrupt("checkpoint: short write: %d of %d bytes", n, len(b))
	}
	return nil
}

// flipReader corrupts one bit of the first byte it reads whenever the
// ReadBitFlip fault fires, exercising the CRC validation on restore.
type flipReader struct{ r io.Reader }

func (fr flipReader) Read(p []byte) (int, error) {
	n, err := fr.r.Read(p)
	if n > 0 && faults.Fire(faults.ReadBitFlip) {
		p[0] ^= 0x40
	}
	return n, err
}

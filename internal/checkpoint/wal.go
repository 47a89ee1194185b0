package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"fdx/internal/core"
	"fdx/internal/fdxerr"
)

// WAL is an append-only log of batch deltas complementing the snapshot: a
// snapshot captures state up to batch m, the WAL holds every batch after
// m, and each append is fsynced, so a crash loses at most the one record
// torn mid-write. A WAL is single-writer; it is not safe for concurrent
// use.
type WAL struct {
	f    *os.File
	path string
}

// OpenWAL opens (creating if absent) the WAL at path for appending.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fdxerr.Corrupt("checkpoint: open wal: %v", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fdxerr.Corrupt("checkpoint: seek wal: %v", err)
	}
	return &WAL{f: f, path: path}, nil
}

// Path returns the WAL's file path.
func (w *WAL) Path() string { return w.path }

// Append logs one batch delta and fsyncs, returning the record's framed
// size (for telemetry). On error the record may be torn on disk; a later
// replay truncates it, so the failed batch is the one at risk, never
// earlier ones.
func (w *WAL) Append(d *core.BatchDelta) (int, error) {
	payload, err := encodeDelta(d)
	if err != nil {
		return 0, err
	}
	var header enc
	header.u32(uint32(len(payload)))
	crc := frameCRC(header.buf, payload)
	frame := make([]byte, 0, len(header.buf)+len(payload)+4)
	frame = append(frame, header.buf...)
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	if err := writeFull(w.f, frame); err != nil {
		return 0, err
	}
	return len(frame), syncFile(w.f)
}

// Reset truncates the WAL after a successful snapshot. Skipping a Reset is
// safe — replay ignores records already covered by the snapshot — it only
// lets the file grow.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fdxerr.Corrupt("checkpoint: truncate wal: %v", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fdxerr.Corrupt("checkpoint: seek wal: %v", err)
	}
	return syncFile(w.f)
}

// Close closes the WAL file.
func (w *WAL) Close() error {
	if err := w.f.Close(); err != nil {
		return fdxerr.Corrupt("checkpoint: close wal: %v", err)
	}
	return nil
}

// ReplayWAL reads the WAL at path, calling apply for each complete record
// in order, and truncates a torn tail record in place so later appends
// continue after the last good one; torn reports whether such a tail was
// found (callers surface it — a torn tail is the one unsynced batch a kill
// can lose, and hiding the truncation would make a resumed stream look
// further along than it is). A missing file replays zero records.
// Mid-log corruption (a bad record with valid data after it) wraps
// ErrCorruptCheckpoint; an apply error is returned as-is.
func ReplayWAL(path string, apply func(*core.BatchDelta) error) (applied int, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fdxerr.Corrupt("checkpoint: open wal: %v", err)
	}
	defer f.Close()
	data, err := io.ReadAll(flipReader{f})
	if err != nil {
		return 0, false, fdxerr.Corrupt("checkpoint: read wal: %v", err)
	}

	off := 0
	for off < len(data) {
		rem := data[off:]
		if len(rem) < 8 {
			torn = true
			break
		}
		n := binary.LittleEndian.Uint32(rem)
		total := 4 + int64(n) + 4
		if int64(n) > maxSectionLen || total > int64(len(rem)) {
			// The record claims more bytes than exist: a tail torn while
			// (or before) its payload was being written.
			torn = true
			break
		}
		frame := rem[:4+n]
		want := binary.LittleEndian.Uint32(rem[4+n:])
		if frameCRC(frame[:4], frame[4:]) != want {
			if int(total) == len(rem) {
				// Full-length final record with a bad sum: torn mid-write
				// with stale bytes beyond the tear.
				torn = true
				break
			}
			return applied, torn, fdxerr.Corrupt("checkpoint: wal record at offset %d fails its checksum with %d live bytes after it", off, len(rem)-int(total))
		}
		d, derr := decodeDelta(frame[4:])
		if derr != nil {
			return applied, torn, fmt.Errorf("checkpoint: wal record at offset %d: %w", off, derr)
		}
		if aerr := apply(d); aerr != nil {
			return applied, torn, aerr
		}
		applied++
		off += int(total)
	}
	if torn {
		if err := f.Truncate(int64(off)); err != nil {
			return applied, torn, fdxerr.Corrupt("checkpoint: truncate torn wal tail: %v", err)
		}
		if err := syncFile(f); err != nil {
			return applied, torn, err
		}
	}
	return applied, torn, nil
}

// encodeDelta serializes a batch delta as a WAL record payload (layout in
// the package doc).
func encodeDelta(d *core.BatchDelta) ([]byte, error) {
	if d == nil {
		return nil, fdxerr.BadInput("checkpoint: nil batch delta")
	}
	k := 0
	for k < maxAttrs && core.CountsLen(k) < len(d.Counts) {
		k++
	}
	if core.CountsLen(k) != len(d.Counts) {
		return nil, fdxerr.BadInput("checkpoint: delta has %d counts, not k·k(k+1)/2 for any k ≤ %d", len(d.Counts), maxAttrs)
	}
	if d.Global < 0 {
		return nil, fdxerr.BadInput("checkpoint: delta has negative global index %d", d.Global)
	}
	var e enc
	e.u64(uint64(d.Seq))
	e.u64(uint64(d.Rows))
	e.u64(uint64(d.Pairs))
	e.u32(uint32(k))
	e.u64(uint64(d.Global))
	for _, v := range d.Counts {
		e.f64(v)
	}
	return e.buf, nil
}

// decodeDelta parses a WAL record payload. Structural failures wrap
// ErrCorruptCheckpoint: the payload already passed its CRC, so a
// malformed layout means the bytes never came from encodeDelta. Whether
// the counts are ones a batch could produce is the core's to judge
// (Accumulator.ApplyDelta).
func decodeDelta(payload []byte) (*core.BatchDelta, error) {
	d := dec{payload}
	seq, ok1 := d.u64()
	rows, ok2 := d.u64()
	pairs, ok3 := d.u64()
	k, ok4 := d.u32()
	global, ok5 := d.u64()
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return nil, fdxerr.Corrupt("checkpoint: wal record too short")
	}
	if k > maxAttrs || seq > 1<<62 || rows > 1<<62 || pairs > 1<<62 || global > 1<<62 {
		return nil, fdxerr.Corrupt("checkpoint: wal record fields out of range")
	}
	n := core.CountsLen(int(k))
	if len(d.buf) != 8*n {
		return nil, fdxerr.Corrupt("checkpoint: wal record body is %d bytes, want %d", len(d.buf), 8*n)
	}
	out := &core.BatchDelta{
		Seq:    int(seq),
		Global: int(global),
		Rows:   int(rows),
		Pairs:  int(pairs),
		Counts: make([]float64, n),
	}
	for i := range out.Counts {
		out.Counts[i], _ = d.f64()
	}
	return out, nil
}

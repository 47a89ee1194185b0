package checkpoint

import (
	"encoding/binary"
	"io"

	"fdx/internal/core"
	"fdx/internal/fdxerr"
)

// WriteSnapshot encodes the accumulator state to w in the version-2
// snapshot format. fingerprint identifies the options the state was
// accumulated under; restore refuses a snapshot whose fingerprint differs
// from the caller's options.
func WriteSnapshot(w io.Writer, st *core.AccumulatorState, fingerprint uint64) error {
	if st == nil {
		return fdxerr.BadInput("checkpoint: nil accumulator state")
	}
	k := len(st.Names)
	if k > maxAttrs {
		return fdxerr.BadInput("checkpoint: %d attributes exceed the format limit %d", k, maxAttrs)
	}
	var prologue enc
	prologue.buf = append(prologue.buf, magic...)
	prologue.u32(version)
	prologue.u32(0) // reserved flags
	if err := writeFull(w, prologue.buf); err != nil {
		return err
	}

	var meta enc
	meta.u64(fingerprint)
	meta.u64(uint64(st.Rows))
	meta.u64(uint64(st.Batches))
	meta.u64(uint64(st.Pairs))
	meta.u32(uint32(k))
	for _, n := range st.Names {
		meta.str(n)
	}
	if err := writeSection(w, secMeta, meta.buf); err != nil {
		return err
	}

	var counts enc
	for _, v := range st.Counts {
		counts.f64(v)
	}
	if err := writeSection(w, secCounts, counts.buf); err != nil {
		return err
	}

	var ranges enc
	ranges.u32(uint32(len(st.Ranges)))
	for _, r := range st.Ranges {
		ranges.u64(uint64(r.Lo))
		ranges.u64(uint64(r.Hi))
	}
	if err := writeSection(w, secRanges, ranges.buf); err != nil {
		return err
	}

	return writeSection(w, secEnd, nil)
}

// ReadSnapshot decodes a snapshot from r, returning the accumulator state
// and the options fingerprint it was written under. Failures wrap
// ErrCorruptCheckpoint (bad magic, CRC mismatch, inconsistent dimensions)
// or ErrCheckpointVersion (intact bytes from an incompatible version).
func ReadSnapshot(r io.Reader) (*core.AccumulatorState, uint64, error) {
	fr := flipReader{r}
	prologue := make([]byte, 16)
	if _, err := io.ReadFull(fr, prologue); err != nil {
		return nil, 0, fdxerr.Corrupt("checkpoint: truncated prologue (%v)", err)
	}
	if string(prologue[:8]) != magic {
		return nil, 0, fdxerr.Corrupt("checkpoint: bad magic %q", prologue[:8])
	}
	if v := binary.LittleEndian.Uint32(prologue[8:]); v != version {
		return nil, 0, fdxerr.Version("checkpoint: format version %d, this build reads %d", v, version)
	}
	if flags := binary.LittleEndian.Uint32(prologue[12:]); flags != 0 {
		// Reserved for future revisions; a flag this build does not know
		// could change the meaning of everything that follows.
		return nil, 0, fdxerr.Version("checkpoint: unknown format flags %#x", flags)
	}

	var (
		st          *core.AccumulatorState
		fingerprint uint64
		seen        = map[uint32]bool{}
	)
	for {
		id, payload, err := readSection(fr)
		if err != nil {
			return nil, 0, err
		}
		if id == secEnd {
			if len(payload) != 0 {
				return nil, 0, fdxerr.Corrupt("checkpoint: end section carries %d bytes", len(payload))
			}
			break
		}
		if seen[id] {
			return nil, 0, fdxerr.Corrupt("checkpoint: duplicate section %d", id)
		}
		seen[id] = true
		switch id {
		case secMeta:
			st, fingerprint, err = decodeMeta(payload)
		case secCounts:
			err = decodeCounts(st, payload)
		case secRanges:
			err = decodeRanges(st, payload)
		default:
			// Unknown section from a newer minor revision: checksummed
			// above, skipped here.
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if st == nil {
		return nil, 0, fdxerr.Corrupt("checkpoint: missing meta section")
	}
	if !seen[secCounts] || !seen[secRanges] {
		return nil, 0, fdxerr.Corrupt("checkpoint: missing state sections")
	}
	return st, fingerprint, nil
}

// decodeMeta parses the meta section and allocates the state skeleton the
// remaining sections fill in.
func decodeMeta(payload []byte) (*core.AccumulatorState, uint64, error) {
	d := dec{payload}
	fingerprint, ok1 := d.u64()
	rows, ok2 := d.u64()
	batches, ok3 := d.u64()
	pairs, ok4 := d.u64()
	k, ok5 := d.u32()
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return nil, 0, fdxerr.Corrupt("checkpoint: meta section too short")
	}
	if k > maxAttrs {
		return nil, 0, fdxerr.Corrupt("checkpoint: meta claims %d attributes (max %d)", k, maxAttrs)
	}
	if rows > 1<<62 || batches > 1<<62 || pairs > 1<<62 {
		return nil, 0, fdxerr.Corrupt("checkpoint: meta counters out of range")
	}
	st := &core.AccumulatorState{
		Names:   make([]string, k),
		Rows:    int(rows),
		Batches: int(batches),
		Pairs:   int(pairs),
	}
	for i := range st.Names {
		name, ok := d.str()
		if !ok {
			return nil, 0, fdxerr.Corrupt("checkpoint: meta section truncated at attribute %d", i)
		}
		st.Names[i] = name
	}
	if len(d.buf) != 0 {
		return nil, 0, fdxerr.Corrupt("checkpoint: meta section has %d trailing bytes", len(d.buf))
	}
	return st, fingerprint, nil
}

// decodeCounts parses the counts section: the k strata's count triangles
// as float64s. Whether the counts are ones a stream could hold is the
// core's to judge (NewAccumulatorFromState).
func decodeCounts(st *core.AccumulatorState, payload []byte) error {
	if st == nil {
		return fdxerr.Corrupt("checkpoint: counts section before meta")
	}
	want := 8 * core.CountsLen(len(st.Names))
	if len(payload) != want {
		return fdxerr.Corrupt("checkpoint: counts section is %d bytes, want %d", len(payload), want)
	}
	d := dec{payload}
	st.Counts = make([]float64, want/8)
	for i := range st.Counts {
		st.Counts[i], _ = d.f64()
	}
	return nil
}

// decodeRanges parses the batch-coverage section.
func decodeRanges(st *core.AccumulatorState, payload []byte) error {
	if st == nil {
		return fdxerr.Corrupt("checkpoint: ranges section before meta")
	}
	d := dec{payload}
	n, ok := d.u32()
	if !ok {
		return fdxerr.Corrupt("checkpoint: ranges section too short")
	}
	if uint64(n) > uint64(st.Batches) {
		// Coalesced disjoint intervals over b batches can never number
		// more than b.
		return fdxerr.Corrupt("checkpoint: ranges section claims %d intervals for %d batches", n, st.Batches)
	}
	st.Ranges = make([]core.BatchRange, n)
	for i := range st.Ranges {
		lo, ok1 := d.u64()
		hi, ok2 := d.u64()
		if !ok1 || !ok2 {
			return fdxerr.Corrupt("checkpoint: ranges section truncated at interval %d", i)
		}
		if lo > 1<<62 || hi > 1<<62 {
			return fdxerr.Corrupt("checkpoint: ranges interval %d out of range", i)
		}
		st.Ranges[i] = core.BatchRange{Lo: int(lo), Hi: int(hi)}
	}
	if len(d.buf) != 0 {
		return fdxerr.Corrupt("checkpoint: ranges section has %d trailing bytes", len(d.buf))
	}
	return nil
}

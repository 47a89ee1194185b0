package fdx

import (
	"io"

	"fdx/internal/checkpoint"
	"fdx/internal/core"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/obs"
	"fdx/internal/par"
)

// Sharded discovery. The accumulator's statistics are sums of per-batch
// contributions — a pair total and per-stratum pair-agreement counts —
// so every accumulated entry is an integer-valued float64 and addition
// over them is exact and associative.
// Shards can therefore absorb disjoint spans of the batch grid
// independently and Merge back into a state bit-identical to the
// sequential run, at any shard count and in any merge order; MergeShards
// nevertheless folds through one fixed binary tree so even a future
// non-integer statistic would stay reproducible.
//
// The batch grid is global: batch i of the full stream keeps transform
// seed Options.Seed + i no matter which shard absorbs it (AddAt), which
// is what makes shard assignment invisible in the result.

// BatchRange is a half-open interval [Lo, Hi) of global batch indices —
// the unit of shard coverage. See core.BatchRange.
type BatchRange = core.BatchRange

// ShardSpans partitions the batch grid [0, total) into the given number
// of contiguous spans, balanced to within one batch (the first total %
// shards spans take the extra batch). The split is a pure function of
// (total, shards); shards beyond total get empty spans.
func ShardSpans(total, shards int) []BatchRange {
	if shards < 1 || total < 0 {
		return nil
	}
	spans := make([]BatchRange, shards)
	base, rem := total/shards, total%shards
	lo := 0
	for s := range spans {
		n := base
		if s < rem {
			n++
		}
		spans[s] = BatchRange{Lo: lo, Hi: lo + n}
		lo += n
	}
	return spans
}

// Coverage returns the accumulator's batch coverage: the sorted,
// disjoint global-batch intervals it has absorbed. A sequential stream
// covers [0, Batches()); a shard covers its assigned span's prefix.
func (a *Accumulator) Coverage() []BatchRange { return a.inner.Coverage() }

// NextGlobal returns the global batch index Add would absorb at next:
// one past the last covered batch (0 when empty).
func (a *Accumulator) NextGlobal() int { return a.inner.NextGlobal() }

// AddAt absorbs one batch at an explicit global batch index — the
// sharding entry point. The batch's transform seed is Options.Seed +
// global regardless of which shard (or process) absorbs it, so the
// folded statistics are bit-identical to the sequential run's. The index
// must not already be covered.
func (a *Accumulator) AddAt(rel *Relation, global int) (err error) {
	defer guard("fdx: Accumulator.AddAt", &err)
	_, err = a.inner.AbsorbAt(rel, global)
	return err
}

// AddLoggedAt is AddAt with the durable-WAL contract of AddLogged: the
// batch's delta (including its global index) is fsynced to w before
// returning.
func (a *Accumulator) AddLoggedAt(rel *Relation, global int, w *WAL) (err error) {
	defer guard("fdx: AddLoggedAt", &err)
	d, err := a.inner.AbsorbAt(rel, global)
	if err != nil {
		return err
	}
	return a.logDelta(d, w)
}

// Merge folds another accumulator's statistics into this one. Both sides
// must have been accumulated under fingerprint-identical options (Seed,
// MaxRows, NumericTolerance, TextSimilarity) and identical schemas, and
// their batch coverages must not partially overlap — violations return
// ErrShardMismatch and change nothing. A donor entirely contained in
// this accumulator's coverage is a duplicate delivery: Merge reports
// applied=false and changes nothing, making shard shipping idempotent.
// The donor is never modified.
func (a *Accumulator) Merge(other *Accumulator) (applied bool, err error) {
	defer guard("fdx: Accumulator.Merge", &err)
	if other == nil {
		return false, fdxerr.BadInput("fdx: nil merge donor")
	}
	ours, theirs := checkpoint.Fingerprint(a.inner.Options()), checkpoint.Fingerprint(other.inner.Options())
	if ours != theirs {
		return false, fdxerr.ShardMismatch(
			"fdx: merge donor was accumulated under different options (fingerprint %016x, ours %016x); Seed, MaxRows, NumericTolerance and TextSimilarity must match",
			theirs, ours)
	}
	applied, err = a.inner.Merge(other.inner)
	if err != nil {
		return false, err
	}
	if applied {
		a.inner.Options().Obs.Count(obs.MShardMerges, 1)
	}
	return applied, nil
}

// MergeSnapshot decodes a shard snapshot (the checkpoint wire format —
// what Snapshot writes and SaveCheckpoint stores) from r and merges it
// in. The snapshot is fully decoded and validated before any state
// changes: arbitrary or bit-flipped bytes surface ErrCorruptCheckpoint
// (or ErrCheckpointVersion), a fingerprint or coverage conflict
// ErrShardMismatch, and in every failure case the accumulator is left
// exactly as it was. Duplicate deliveries report applied=false.
func (a *Accumulator) MergeSnapshot(r io.Reader) (applied bool, err error) {
	defer guard("fdx: MergeSnapshot", &err)
	st, fingerprint, err := checkpoint.ReadSnapshot(shardFaultReader{r})
	if err != nil {
		return false, err
	}
	copts := a.inner.Options()
	if ours := checkpoint.Fingerprint(copts); fingerprint != ours {
		return false, fdxerr.ShardMismatch(
			"fdx: shard snapshot was taken under different options (fingerprint %016x, ours %016x); Seed, MaxRows, NumericTolerance and TextSimilarity must match",
			fingerprint, ours)
	}
	donor, err := core.NewAccumulatorFromState(st, copts)
	if err != nil {
		// Checksums passed but the state is impossible: corrupt bytes, not
		// a caller mistake.
		return false, fdxerr.Corrupt("fdx: shard snapshot state rejected: %v", err)
	}
	applied, err = a.inner.Merge(donor)
	if err != nil {
		return false, err
	}
	if applied {
		copts.Obs.Count(obs.MShardMerges, 1)
	}
	return applied, nil
}

// shardFaultReader flips one bit of the first byte it reads when the
// MergeCorrupt fault fires, driving the chaos suite's contract that a
// corrupt shard snapshot surfaces ErrCorruptCheckpoint and never poisons
// the merged state.
type shardFaultReader struct{ r io.Reader }

func (fr shardFaultReader) Read(p []byte) (int, error) {
	n, err := fr.r.Read(p)
	if n > 0 && faults.Fire(faults.MergeCorrupt) {
		p[0] ^= 0x20
	}
	return n, err
}

// MergeShards folds the shard accumulators into shards[0] through a
// fixed binary reduction tree (internal/par.Reduce): the merge order is
// a function of the shard count alone, never of workers or scheduling,
// so the result is reproducible run to run. The statistics themselves
// are integer-valued (see the package comment above), so the folded
// state is bit-identical to the sequential run regardless of order — the
// fixed tree is belt and suspenders. Returns shards[0], which now holds
// the union; the other entries are unchanged but share no coverage with
// the result's, so the slice should be discarded. Any incompatibility
// (ErrShardMismatch) or invalid entry aborts the fold.
func MergeShards(shards []*Accumulator, workers int) (acc *Accumulator, err error) {
	defer guard("fdx: MergeShards", &err)
	if len(shards) == 0 {
		return nil, fdxerr.BadInput("fdx: no shards to merge")
	}
	for i, s := range shards {
		if s == nil {
			return nil, fdxerr.BadInput("fdx: shard %d is nil", i)
		}
	}
	if workers > (len(shards)+1)/2 {
		workers = (len(shards) + 1) / 2
	}
	pool := par.New(workers)
	defer pool.Close()
	if err := pool.Reduce(len(shards), func(dst, src int) error {
		_, merr := shards[dst].Merge(shards[src])
		return merr
	}); err != nil {
		return nil, err
	}
	return shards[0], nil
}

// logDelta appends an absorbed batch's delta to the WAL with an fsync,
// recording the write in the accumulator's telemetry (shared by
// AddLogged and AddLoggedAt).
func (a *Accumulator) logDelta(d *core.BatchDelta, w *WAL) error {
	h := a.inner.Options().Obs
	sp := h.StartStage("wal-append")
	defer sp.End()
	n, err := w.inner.Append(d)
	if err != nil {
		return err
	}
	sp.Attr("bytes", n)
	h.Count(obs.MWALRecords, 1)
	h.Count(obs.MWALBytes, uint64(n))
	return nil
}

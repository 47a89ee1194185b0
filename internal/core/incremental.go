package core

import (
	"context"
	"math"

	"fdx/internal/dataset"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
	"fdx/internal/obs"
)

// Accumulator maintains the sufficient statistics of the FDX pair model
// across appended batches of tuples, so dependencies can be re-derived
// after every batch without retransforming history — the dynamic-data
// direction the paper's related work (DynFD) motivates.
//
// Each batch's pairs (Alg. 2 within the batch) are counted by the same
// fused kernel batch discovery runs, and its per-stratum agreement counts
// are added into running totals; S is then evaluated from the totals by
// the same helper as in batch discovery, so a one-batch stream is
// bit-identical to Discover. Pairs never span batches, so on longer
// streams the estimate is an approximation of the full recompute that
// converges as batches grow; Discover on the concatenation remains the
// reference semantics.
type Accumulator struct {
	names []string
	opts  Options

	// counts holds one count triangle per stratum (= per attribute), back
	// to back, in pairCounts' packed layout: k(k+1)/2 entries each. pairs
	// is the number of pairs every stratum has counted — a batch of n rows
	// contributes min(n, MaxRows) — and the n each triangle is over.
	counts []float64
	pairs  int

	rows    int
	batches int
	// ranges is the accumulator's batch coverage: the sorted, disjoint,
	// coalesced set of half-open global-batch intervals it has absorbed.
	// A plain sequential stream covers [0, batches); a shard covers its
	// assigned span. Merge refuses overlapping coverage — the same global
	// batch folded twice would silently double its statistics.
	ranges []BatchRange
}

// BatchRange is a half-open interval [Lo, Hi) of global batch indices.
// The global index identifies a batch's position in the full stream's
// batch grid: it seeds the batch's transform (Options.Seed + index), so
// any shard assignment of the same grid produces bit-identical deltas.
type BatchRange struct {
	Lo, Hi int
}

// rangesCovered reports whether global batch g lies inside the coverage.
func rangesCovered(rs []BatchRange, g int) bool {
	for _, r := range rs {
		if g < r.Lo {
			return false
		}
		if g < r.Hi {
			return true
		}
	}
	return false
}

// rangesInsert adds the single batch [g, g+1) to the coverage, keeping it
// sorted, disjoint, and coalesced. The caller has already checked g is not
// covered.
func rangesInsert(rs []BatchRange, g int) []BatchRange {
	i := 0
	for i < len(rs) && rs[i].Hi < g {
		i++
	}
	// rs[i] is the first range with Hi >= g (if any).
	switch {
	case i < len(rs) && rs[i].Hi == g:
		rs[i].Hi = g + 1
		if i+1 < len(rs) && rs[i+1].Lo == g+1 {
			rs[i].Hi = rs[i+1].Hi
			rs = append(rs[:i+1], rs[i+2:]...)
		}
		return rs
	case i < len(rs) && rs[i].Lo == g+1:
		rs[i].Lo = g
		return rs
	default:
		rs = append(rs, BatchRange{})
		copy(rs[i+1:], rs[i:])
		rs[i] = BatchRange{Lo: g, Hi: g + 1}
		return rs
	}
}

// rangesUnion merges two coverages into canonical form, reporting whether
// they intersect anywhere.
func rangesUnion(a, b []BatchRange) (union []BatchRange, overlap bool) {
	merged := make([]BatchRange, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var next BatchRange
		if j >= len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			next = a[i]
			i++
		} else {
			next = b[j]
			j++
		}
		if n := len(merged); n > 0 && next.Lo <= merged[n-1].Hi {
			if next.Lo < merged[n-1].Hi {
				overlap = true
			}
			if next.Hi > merged[n-1].Hi {
				merged[n-1].Hi = next.Hi
			}
			continue
		}
		merged = append(merged, next)
	}
	return merged, overlap
}

// rangesContainAll reports whether coverage a contains every batch of b.
func rangesContainAll(a, b []BatchRange) bool {
	i := 0
	for _, r := range b {
		for i < len(a) && a[i].Hi <= r.Lo {
			i++
		}
		if i >= len(a) || r.Lo < a[i].Lo || r.Hi > a[i].Hi {
			return false
		}
	}
	return true
}

// rangesBatches sums the coverage's batch count.
func rangesBatches(rs []BatchRange) int {
	n := 0
	for _, r := range rs {
		n += r.Hi - r.Lo
	}
	return n
}

// validRanges reports whether rs is canonical: sorted, disjoint,
// coalesced (no two adjacent intervals touch), with non-negative bounds.
func validRanges(rs []BatchRange) bool {
	prev := -1
	for _, r := range rs {
		if r.Lo < 0 || r.Hi <= r.Lo || r.Lo <= prev {
			return false
		}
		prev = r.Hi
	}
	return true
}

// NewAccumulator creates an accumulator for relations with the given
// attribute names.
func NewAccumulator(attrNames []string, opts Options) *Accumulator {
	return &Accumulator{
		names:  append([]string(nil), attrNames...),
		opts:   opts,
		counts: make([]float64, CountsLen(len(attrNames))),
	}
}

// CountsLen is the number of entries in k strata's count triangles, the
// length of AccumulatorState.Counts and BatchDelta.Counts.
func CountsLen(k int) int { return k * k * (k + 1) / 2 }

// Rows returns the total number of tuples absorbed.
func (a *Accumulator) Rows() int { return a.rows }

// Batches returns the number of Add calls absorbed.
func (a *Accumulator) Batches() int { return a.batches }

// BatchDelta is the statistics contribution of one absorbed batch — the
// unit the durable-streaming WAL (internal/checkpoint) logs and replays.
// Applying a snapshot's state and then each logged delta in sequence
// reproduces the accumulator bit-for-bit, because Absorb folds the live
// batch through the identical ApplyDelta path.
type BatchDelta struct {
	// Seq is the accumulator's batch count after applying this delta
	// (1-based); deltas apply strictly in sequence.
	Seq int
	// Global is the batch's 0-based index in the full stream's batch grid.
	// It seeded the batch's transform (Options.Seed + Global) and extends
	// the accumulator's coverage; for an unsharded stream it is Seq-1.
	Global int
	// Rows is the batch's tuple count.
	Rows int
	// Pairs is the number of pairs each stratum of the batch counted: Rows
	// cut to Options.Transform.MaxRows.
	Pairs int
	// Counts holds the batch's per-stratum count triangles in the
	// accumulator's layout (see Accumulator.counts).
	Counts []float64
}

// Add transforms one batch of tuples and folds its statistics in. The
// batch must have the accumulator's schema (same attribute names, in
// order) and at least two rows (a single row forms no pairs).
func (a *Accumulator) Add(rel *dataset.Relation) error {
	_, err := a.Absorb(rel)
	return err
}

// Absorb is Add returning the batch's statistics delta, so durable callers
// can log exactly what was folded in and replay it after a crash. The
// batch lands at the next uncovered global index (NextGlobal), which for a
// plain sequential stream is simply the batch count.
func (a *Accumulator) Absorb(rel *dataset.Relation) (*BatchDelta, error) {
	return a.AbsorbAt(rel, a.NextGlobal())
}

// NextGlobal returns the global batch index Absorb would assign next: one
// past the accumulator's last covered batch (0 when empty). A shard
// worker resuming its span continues at its span's start plus its batch
// count, which is exactly this value once the first span batch lands.
func (a *Accumulator) NextGlobal() int {
	if len(a.ranges) == 0 {
		return 0
	}
	return a.ranges[len(a.ranges)-1].Hi
}

// Coverage returns a copy of the accumulator's batch coverage: the
// sorted, disjoint global-batch intervals it has absorbed.
func (a *Accumulator) Coverage() []BatchRange {
	return append([]BatchRange(nil), a.ranges...)
}

// AbsorbAt is Absorb at an explicit global batch index — the sharding
// entry point. The transform seed is Options.Seed + global, a function of
// the batch's position in the full stream's grid and nothing else, so the
// delta is bit-identical no matter which shard absorbs the batch. The
// index must not already be covered.
func (a *Accumulator) AbsorbAt(rel *dataset.Relation, global int) (*BatchDelta, error) {
	if rel == nil {
		return nil, fdxerr.BadInput("core: nil batch")
	}
	if global < 0 {
		return nil, fdxerr.BadInput("core: negative global batch index %d", global)
	}
	if rangesCovered(a.ranges, global) {
		return nil, fdxerr.BadInput("core: global batch %d is already absorbed", global)
	}
	k := len(a.names)
	if rel.NumCols() != k {
		return nil, fdxerr.BadInput("core: batch has %d attributes, accumulator has %d", rel.NumCols(), k)
	}
	for i, n := range rel.AttrNames() {
		if n != a.names[i] {
			return nil, fdxerr.BadInput("core: batch attribute %d is %q, want %q", i, n, a.names[i])
		}
	}
	n := rel.NumRows()
	if n < 2 {
		return nil, fdxerr.BadInput("core: batch needs at least 2 rows, got %d", n)
	}
	// Each batch is its own trace tree: the stream loop may absorb
	// thousands, so they stay roots rather than children of one giant span.
	bsp := a.opts.Obs.Start("absorb-batch")
	defer bsp.End()
	bsp.Attr("seq", a.batches+1)
	bsp.Attr("global", global)
	bsp.Attr("rows", n)
	h := a.opts.Obs.Under(bsp)
	topts := a.opts.Transform
	topts.Obs = h
	topts.Seed = a.opts.Seed + int64(global)
	d := &BatchDelta{
		Seq:    a.batches + 1,
		Global: global,
		Rows:   n,
		Counts: make([]float64, CountsLen(k)),
	}
	pairs, err := pairCounts(context.Background(), rel, topts, d.Counts)
	if err != nil {
		return nil, err
	}
	d.Pairs = pairs
	asp := h.StartStage("accumulate")
	err = a.ApplyDelta(d)
	asp.End()
	if err != nil {
		return nil, err
	}
	h.Count(obs.MRowsAbsorbed, uint64(n))
	h.Count(obs.MBatchesAbsorbed, 1)
	return d, nil
}

// ApplyDelta folds a batch's statistics delta into the running totals —
// the WAL replay path. The delta must be the next one in sequence (Seq
// equal to Batches()+1), match the accumulator's dimensionality, and hold
// counts some batch could have produced (see checkPairCounts).
func (a *Accumulator) ApplyDelta(d *BatchDelta) error {
	if d == nil {
		return fdxerr.BadInput("core: nil batch delta")
	}
	if d.Seq != a.batches+1 {
		return fdxerr.BadInput("core: batch delta seq %d, accumulator expects %d", d.Seq, a.batches+1)
	}
	if d.Global < 0 {
		return fdxerr.BadInput("core: batch delta has negative global index %d", d.Global)
	}
	if rangesCovered(a.ranges, d.Global) {
		return fdxerr.BadInput("core: batch delta global %d is already absorbed", d.Global)
	}
	if d.Rows < 2 {
		return fdxerr.BadInput("core: batch delta covers %d rows, need at least 2", d.Rows)
	}
	if len(d.Counts) != len(a.counts) {
		return fdxerr.BadInput("core: batch delta has %d counts, accumulator has %d", len(d.Counts), len(a.counts))
	}
	if err := checkPairCounts("batch delta", d.Counts, d.Pairs, 1, d.Rows); err != nil {
		return err
	}
	linalg.Axpy(1, d.Counts, a.counts)
	a.pairs += d.Pairs
	a.rows += d.Rows
	a.batches++
	a.ranges = rangesInsert(a.ranges, d.Global)
	return nil
}

// AccumulatorState is the complete serializable state of an Accumulator —
// everything a snapshot must capture so a restored accumulator continues
// the stream bit-for-bit.
type AccumulatorState struct {
	Names   []string
	Rows    int
	Batches int
	// Pairs and Counts are the accumulator's pair total and per-stratum
	// count triangles (see Accumulator.counts).
	Pairs  int
	Counts []float64
	// Ranges is the batch coverage in canonical form.
	Ranges []BatchRange
}

// State returns a deep copy of the accumulator's serializable state.
func (a *Accumulator) State() *AccumulatorState {
	return &AccumulatorState{
		Names:   append([]string(nil), a.names...),
		Rows:    a.rows,
		Batches: a.batches,
		Pairs:   a.pairs,
		Counts:  append([]float64(nil), a.counts...),
		Ranges:  append([]BatchRange(nil), a.ranges...),
	}
}

// Options returns a copy of the accumulator's pipeline configuration.
func (a *Accumulator) Options() Options { return a.opts }

// NewAccumulatorFromState reconstructs an accumulator from a snapshot
// state, validating its internal consistency. The state is deep-copied.
func NewAccumulatorFromState(st *AccumulatorState, opts Options) (*Accumulator, error) {
	if st == nil {
		return nil, fdxerr.BadInput("core: nil accumulator state")
	}
	k := len(st.Names)
	if st.Rows < 0 || st.Batches < 0 || (st.Rows > 0 && st.Batches == 0) || (st.Batches > 0 && st.Rows < 2*st.Batches) {
		return nil, fdxerr.BadInput("core: state has impossible counters rows=%d batches=%d", st.Rows, st.Batches)
	}
	if !validRanges(st.Ranges) {
		return nil, fdxerr.BadInput("core: state batch coverage %v is not sorted, disjoint, and coalesced", st.Ranges)
	}
	if rangesBatches(st.Ranges) != st.Batches {
		return nil, fdxerr.BadInput("core: state coverage spans %d batches, counters say %d", rangesBatches(st.Ranges), st.Batches)
	}
	if len(st.Counts) != CountsLen(k) {
		return nil, fdxerr.BadInput("core: state has %d counts, want %d for %d attributes", len(st.Counts), CountsLen(k), k)
	}
	if err := checkPairCounts("state", st.Counts, st.Pairs, st.Batches, st.Rows); err != nil {
		return nil, err
	}
	a := NewAccumulator(st.Names, opts)
	copy(a.counts, st.Counts)
	a.pairs = st.Pairs
	a.rows = st.Rows
	a.batches = st.Batches
	a.ranges = append([]BatchRange(nil), st.Ranges...)
	return a, nil
}

// checkPairCounts rejects pair statistics no absorbed batches could have
// produced — the guard for a delta or state decoded from bytes outside the
// program (a snapshot, WAL record or shipped shard that passed its CRC).
// pairs must lie in [minPairs, rows], and every count must be a whole
// number in [0, pairs], since it counts some of those pairs. Without the
// guard a NaN, negative or fractional count would poison S for good.
// (fdx:numeric-kernel: counts are integers held in float64; the negated
// conjunction also rejects NaN.)
func checkPairCounts(what string, counts []float64, pairs, minPairs, rows int) error {
	if pairs < minPairs || pairs > rows {
		return fdxerr.BadInput("core: %s has %d pairs, want [%d, %d]", what, pairs, minPairs, rows)
	}
	p := float64(pairs)
	for i, c := range counts {
		if !(c >= 0 && c <= p && c == math.Trunc(c)) {
			return fdxerr.BadInput("core: %s count %d is %v, want a whole number in [0, %d]", what, i, c, pairs)
		}
	}
	return nil
}

// Merge folds another accumulator's statistics into this one — the scale-
// out path: shards absorb disjoint spans of the batch grid independently
// and merge into the full-stream state. Requirements (checked before any
// mutation, so a failed merge changes neither side):
//
//   - identical attribute schemas, else ErrShardMismatch;
//   - batch coverages must not partially overlap, else ErrShardMismatch
//     (the same batch folded twice would double its statistics).
//
// A donor whose coverage this accumulator already contains entirely is a
// duplicate delivery — Merge reports applied=false and changes nothing,
// making shard shipping idempotent. Every accumulated statistic is a
// pair count held as an integer-valued float64, so the fold is exact: the merged state is bit-identical to absorbing the same
// batches sequentially, in any merge order. Options fingerprints are the
// caller's to check (the fdx root layer does) — core cannot see the
// checkpoint fingerprint without an import cycle. The donor is never
// modified.
func (a *Accumulator) Merge(other *Accumulator) (applied bool, err error) {
	if other == nil {
		return false, fdxerr.BadInput("core: nil merge donor")
	}
	if len(other.names) != len(a.names) {
		return false, fdxerr.ShardMismatch("core: merge donor has %d attributes, accumulator has %d", len(other.names), len(a.names))
	}
	for i, n := range other.names {
		if n != a.names[i] {
			return false, fdxerr.ShardMismatch("core: merge donor attribute %d is %q, want %q", i, n, a.names[i])
		}
	}
	if rangesContainAll(a.ranges, other.ranges) {
		return false, nil // duplicate delivery; already folded in
	}
	union, overlap := rangesUnion(a.ranges, other.ranges)
	if overlap {
		return false, fdxerr.ShardMismatch("core: merge coverage %v overlaps %v", other.ranges, a.ranges)
	}
	linalg.Axpy(1, other.counts, a.counts)
	a.pairs += other.pairs
	a.rows += other.rows
	a.batches += other.batches
	a.ranges = union
	return true, nil
}

// Covariance returns S evaluated from the absorbed batches' pair counts,
// as batch discovery evaluates it (see countCovariance).
func (a *Accumulator) Covariance() (*linalg.Dense, error) {
	return a.covariance(a.opts.Obs)
}

// covariance is Covariance reporting under the given telemetry context,
// so the stage span can nest under a caller's "discover" root.
func (a *Accumulator) covariance(h obs.Hooks) (*linalg.Dense, error) {
	if a.rows == 0 {
		return nil, fdxerr.BadInput("core: accumulator has no data")
	}
	opts := a.opts
	opts.Obs = h
	return countCovariance(a.pairs, a.counts, len(a.names), opts), nil
}

// Discover derives the current model from the accumulated statistics.
func (a *Accumulator) Discover() (*Model, error) {
	return a.DiscoverContext(context.Background())
}

// DiscoverContext is Discover with cancellation (see DiscoverContext at the
// package level for where the context is checked).
func (a *Accumulator) DiscoverContext(ctx context.Context) (*Model, error) {
	run := a.opts.Obs.Start("discover")
	defer run.End()
	h := a.opts.Obs.Under(run)
	h.Count(obs.MDiscoverRuns, 1)
	s, err := a.covariance(h)
	if err != nil {
		return nil, err
	}
	opts := a.opts
	opts.Obs = h
	m, err := DiscoverFromCovarianceContext(ctx, s, a.names, opts)
	if err != nil {
		return nil, err
	}
	run.End()
	m.Trace = run
	return m, nil
}

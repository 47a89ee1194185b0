package core

import (
	"context"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"

	"fdx/internal/dataset"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
	"fdx/internal/obs"
	"fdx/internal/par"
	"fdx/internal/stats"
)

// The fused pair-statistics kernel. The covariance FDX needs from the
// Alg. 2 tuple-pair samples depends only on integer counts per stratum:
// how many of the stratum's n pairs agree on attribute l, and how many
// agree on l and m together. The kernel counts those directly — one
// agreement bit per pair in a per-column bitset, then popcount(bits_l) and
// popcount(bits_l & bits_m) — instead of materializing the (n·k)×k sample
// matrix that Transform returns. The counts are exact integers in float64,
// which is what makes every downstream statistic bit-identical to the
// dense path (see DESIGN.md §Transform).

// pairChunk is the number of pairs compared per bitset chunk: the chunk's
// k agreement bitsets stay cache-resident while their popcounts are taken,
// and the context is polled once per chunk.
const (
	pairChunk  = 4096
	chunkWords = pairChunk / 64
)

// pairKernel is the per-call state shared by every stratum: the shuffled,
// MaxRows-cut tuple order and the per-column comparison contexts.
type pairKernel struct {
	opts TransformOptions
	buf  *pairScratch // pooled; buf.perm backs rows
	rows []int
	cols []pairCol
}

// pairCol is one attribute's comparison context. Exact columns
// (categorical, and text without TextSimilarity) agree iff their codes are
// equal and present; the rest go through the §4.1 operators of cellsEqual.
type pairCol struct {
	colCtx
	codes []int32
	exact bool
}

// pairScratch is one worker's reusable buffers: the stratum's sorted tuple
// order (with the first tuple repeated at the end, so the circular
// successor of the last pair needs no modulo), the counting-sort
// histogram, and the chunk's agreement bitsets (k × chunkWords words).
type pairScratch struct {
	perm []int
	hist []int
	bits []uint64
}

// pairPool recycles pairScratch across calls, so the streaming steady state
// allocates only each batch's delta.
var pairPool = sync.Pool{New: func() any { return new(pairScratch) }}

func getPairScratch() *pairScratch { return pairPool.Get().(*pairScratch) }

// resize returns buf with length n, reallocating only when it is too
// small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// newPairKernel applies Transform's seeded shuffle and MaxRows cut and
// builds the per-column comparison contexts. opts must have defaults
// applied. Release the kernel with release.
func newPairKernel(ctx context.Context, rel *dataset.Relation, opts TransformOptions) (*pairKernel, error) {
	n := rel.NumRows()
	pk := &pairKernel{opts: opts, buf: getPairScratch()}
	rows := resize(pk.buf.perm, n)
	pk.buf.perm = rows
	for i := range rows {
		rows[i] = i
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if opts.MaxRows > 0 && n > opts.MaxRows {
		rows = rows[:opts.MaxRows]
	}
	pk.rows = rows
	pk.cols = make([]pairCol, rel.NumCols())
	for l, col := range rel.Columns {
		// Building a text column's 3-gram sets scans every distinct value;
		// honor cancellation between columns.
		if err := ctx.Err(); err != nil {
			pk.release()
			return nil, fdxerr.Cancelled(err)
		}
		pc := &pk.cols[l]
		pc.col = col
		pc.codes = col.Codes()
		switch {
		case col.Type == dataset.Numeric:
			pc.scale = numericScale(col, rows)
		case col.Type == dataset.Text && opts.TextSimilarity:
			pc.grams = buildTextGrams(col)
		default:
			pc.exact = true
		}
	}
	return pk, nil
}

func (pk *pairKernel) release() { pairPool.Put(pk.buf) }

// pairCounts runs the fused kernel over every stratum (one per attribute),
// fanning strata across Workers goroutines. For stratum s it adds the
// agreement counts of the stratum's pairs into its count triangle, the
// k(k+1)/2 entries of counts from s·k(k+1)/2 on: the count of pairs
// agreeing on both l and m at offset rowOffsets(k)[l]+m for every m ≥ l
// (the diagonal m = l is attribute l's own agreement count). Each stratum
// writes only its own triangle, so the output is identical at any worker
// count. It returns the effective tuple count n (after MaxRows); every
// stratum holds n pairs. counts must hold CountsLen(k) entries.
func pairCounts(ctx context.Context, rel *dataset.Relation, opts TransformOptions, counts []float64) (int, error) {
	opts.defaults()
	n, k := transformDims(rel, &opts)
	if n == 0 || k == 0 {
		return n, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		//fdx:lint-ignore detsource worker count only; every stratum owns its output, so results are count-invariant
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	tsp := opts.Obs.StartStage("transform")
	defer tsp.End()
	tsp.Attr("rows", n)
	tsp.Attr("attrs", k)
	tsp.Attr("workers", workers)
	pk, err := newPairKernel(ctx, rel, opts)
	if err != nil {
		return 0, err
	}
	defer pk.release()
	off, size := rowOffsets(k), k*(k+1)/2
	pool := par.New(workers)
	pool.For(k, 1, func(lo, hi int) {
		sc := getPairScratch()
		for s := lo; s < hi; s++ {
			if ctx.Err() != nil {
				break
			}
			bsp := tsp.Child("block")
			bsp.Attr("attr", rel.Columns[s].Name)
			faults.Sleep(faults.SlowStage)
			pk.stratum(ctx, s, sc, off, counts[s*size:(s+1)*size])
			bsp.End()
		}
		pairPool.Put(sc)
	})
	pool.Close()
	if err := ctx.Err(); err != nil {
		return 0, fdxerr.Cancelled(err)
	}
	opts.Obs.Count(obs.MTransformPairs, uint64(n)*uint64(k))
	return n, nil
}

// stratum counts the pair agreements of stratum s into out (layout as in
// pairCounts). Cancellation is polled once per chunk of pairChunk pairs;
// a cancelled stratum stops early and the caller reports the error.
func (pk *pairKernel) stratum(ctx context.Context, s int, sc *pairScratch, off []int, out []float64) {
	n, k := len(pk.rows), len(pk.cols)
	perm := pk.sortBy(s, sc)
	sc.bits = resize(sc.bits, k*chunkWords)
	for j0 := 0; j0 < n; j0 += pairChunk {
		if ctx.Err() != nil {
			return
		}
		j1 := min(j0+pairChunk, n)
		words := (j1 - j0 + 63) / 64
		// Pairs (perm[j], perm[j+1]) for j in [j0, j1).
		p := perm[j0 : j1+1]
		for l := range pk.cols {
			pk.compare(&pk.cols[l], p, sc.bits[l*chunkWords:l*chunkWords+words])
		}
		for l := 0; l < k; l++ {
			bl := sc.bits[l*chunkWords : l*chunkWords+words]
			c := 0
			for _, w := range bl {
				c += bits.OnesCount64(w)
			}
			if c == 0 {
				continue // no pair agrees on l, so none agrees on l and m
			}
			row := out[off[l]:]
			row[l] += float64(c)
			for m := l + 1; m < k; m++ {
				bm := sc.bits[m*chunkWords : m*chunkWords+words]
				bm = bm[:len(bl)]
				c := 0
				for w, x := range bl {
					c += bits.OnesCount64(x & bm[w])
				}
				row[m] += float64(c)
			}
		}
	}
}

// compare sets one agreement bit per pair (p[j], p[j+1]) of the chunk in
// dst, bit j%64 of word j/64; bits past the chunk's last pair stay zero.
// The column's type is decided once, outside the pair loop.
// Panics unless dst has one word per 64 pairs.
func (pk *pairKernel) compare(pc *pairCol, p []int, dst []uint64) {
	pairs := len(p) - 1
	if len(dst) != (pairs+63)/64 {
		panic("core: compare bitset length disagrees with the chunk's pairs")
	}
	if pc.exact {
		codes := pc.codes
		prev := codes[p[0]]
		for w := range dst {
			lo := w * 64
			var word uint64
			for j := lo; j < min(lo+64, pairs); j++ {
				cur := codes[p[j+1]]
				if cur == prev && cur != dataset.Missing {
					word |= 1 << uint(j-lo)
				}
				prev = cur
			}
			dst[w] = word
		}
		return
	}
	for w := range dst {
		lo := w * 64
		var word uint64
		for j := lo; j < min(lo+64, pairs); j++ {
			if cellsEqual(&pc.colCtx, p[j], p[j+1], &pk.opts) {
				word |= 1 << uint(j-lo)
			}
		}
		dst[w] = word
	}
}

// sortBy returns the kernel's tuple order stably sorted by attribute s's
// dictionary code, Missing first — the permutation sort.SliceStable gives
// Transform — via a counting sort in O(n + cardinality). The result has
// n+1 entries: the first tuple repeats at the end as the last pair's
// circular successor.
func (pk *pairKernel) sortBy(s int, sc *pairScratch) []int {
	n := len(pk.rows)
	codes := pk.cols[s].codes
	// hist[c+2] counts code c (Missing = -1 lands in hist[1]); after the
	// prefix sum hist[c+1] is code c's first output position.
	hist := resize(sc.hist, pk.cols[s].col.Cardinality()+2)
	sc.hist = hist
	clear(hist)
	for _, r := range pk.rows {
		hist[codes[r]+2]++
	}
	for i := 1; i < len(hist); i++ {
		hist[i] += hist[i-1]
	}
	perm := resize(sc.perm, n+1)
	sc.perm = perm
	for _, r := range pk.rows {
		at := &hist[codes[r]+1]
		perm[*at] = r
		*at++
	}
	perm[n] = perm[0]
	return perm
}

// rowOffsets returns where row l of a packed k×k upper triangle starts,
// so that entry (l, m), m ≥ l, lives at off[l]+m: rows back to back,
// k(k+1)/2 entries in all — the stats count-triangle layout.
func rowOffsets(k int) []int {
	off := make([]int, k)
	for l := range off {
		off[l] = l*k - l*(l+1)/2
	}
	return off
}

// pairCovariance is the batch path's pair statistics through S: the fused
// kernel's per-stratum counts (the "transform" stage), then countCovariance
// (the "covariance" stage). Bit-identical to stats.StratifiedCovariance
// (stats.Covariance) of TransformContext's sample matrix.
func pairCovariance(ctx context.Context, rel *dataset.Relation, opts Options) (*linalg.Dense, error) {
	k := rel.NumCols()
	counts := make([]float64, CountsLen(k))
	n, err := pairCounts(ctx, rel, opts.Transform, counts)
	if err != nil {
		return nil, err
	}
	return countCovariance(n, counts, k, opts), nil
}

// countCovariance evaluates S from k strata's count triangles, each over n
// pairs: the stratified covariance, or under PooledCovariance the pooled
// one. Batch discovery and the accumulator both end here, so equal counts
// give equal bits whichever path produced them.
func countCovariance(n int, counts []float64, k int, opts Options) *linalg.Dense {
	csp := opts.Obs.StartStage("covariance")
	defer csp.End()
	csp.Attr("dim", k)
	if opts.PooledCovariance {
		return stats.PooledCountCovariance(n, counts, k)
	}
	return stats.StratifiedCountCovariance(n, counts, k)
}

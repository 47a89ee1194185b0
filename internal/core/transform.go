package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"fdx/internal/dataset"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
	"fdx/internal/obs"
)

// TransformOptions configures the tuple-pair transformation (paper Alg. 2).
type TransformOptions struct {
	// Seed drives the initial row shuffle.
	Seed int64
	// MaxRows caps the number of input tuples used (0 = all). When the
	// input is larger, a uniform row sample is taken first; the paper
	// notes sampling as the remedy for the transform's self-join cost on
	// large instances (§5.4).
	MaxRows int
	// NumericTol is the relative tolerance for numeric approximate
	// equality, as a fraction of the column's value scale (default 1e-9,
	// i.e. effectively exact).
	NumericTol float64
	// TextSimilarity enables Jaccard 3-gram similarity ≥ TextThreshold as
	// the text difference operator; otherwise text compares exactly.
	TextSimilarity bool
	// TextThreshold is the Jaccard similarity above which two text values
	// are considered equal (default 0.9).
	TextThreshold float64
	// Workers sets the number of goroutines processing attribute blocks
	// (0 = GOMAXPROCS, 1 = sequential). Each attribute's sorted block is
	// independent, so the output is identical at any worker count.
	Workers int
	// Obs carries the optional telemetry sinks; inherited from the
	// pipeline options by core.Options.defaults. Never part of the
	// checkpoint fingerprint.
	Obs obs.Hooks
}

// defaults fills unset fields. (fdx:numeric-kernel: the exact zero value is
// the "unset" sentinel on option fields, never a computed float.)
func (o *TransformOptions) defaults() {
	if o.NumericTol == 0 {
		o.NumericTol = 1e-9
	}
	if o.TextThreshold == 0 {
		o.TextThreshold = 0.9
	}
}

// Transform implements Algorithm 2: for every attribute, sort the (shuffled)
// relation by that attribute, pair each tuple with its successor under a
// circular shift, and emit one binary row per pair whose l-th entry
// indicates equality on attribute l. The output has n·k rows and k columns.
//
// Missing cells never match anything (including other missing cells): an
// unknown value gives no evidence that the pair agrees.
//
// Discovery never materializes this matrix: DiscoverContext and the
// Accumulator count the same pairs' agreements with the fused kernel of
// pairstats.go. Transform is the dense reference that kernel is tested
// against bit for bit, and what the scalability experiments time as the
// paper's transform phase (Fig. 6).
func Transform(rel *dataset.Relation, opts TransformOptions) *linalg.Dense {
	// A background context never expires, so the error return is dead here.
	dt, _ := TransformContext(context.Background(), rel, opts)
	return dt
}

// TransformContext is Transform with cancellation: workers poll the context
// between attribute blocks and every few thousand pair rows, and a wrapped
// ctx.Err() is returned promptly on expiry.
func TransformContext(ctx context.Context, rel *dataset.Relation, opts TransformOptions) (*linalg.Dense, error) {
	opts.defaults()
	n, k := transformDims(rel, &opts)
	if n == 0 || k == 0 {
		return linalg.NewDense(0, k), nil
	}
	out := linalg.NewDense(n*k, k)
	rng := rand.New(rand.NewSource(opts.Seed))

	rows := make([]int, rel.NumRows())
	for i := range rows {
		rows[i] = i
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	rows = rows[:n]

	// Pre-compute the per-column comparison contexts: numeric scales for
	// approximate equality, 3-gram sets per distinct text value.
	ctxs := make([]colCtx, k)
	for j, col := range rel.Columns {
		// Building a text column's 3-gram sets scans every distinct value;
		// honor cancellation between columns.
		if err := ctx.Err(); err != nil {
			return nil, fdxerr.Cancelled(err)
		}
		ctxs[j].col = col
		if col.Type == dataset.Numeric {
			ctxs[j].scale = numericScale(col, rows)
		}
		if col.Type == dataset.Text && opts.TextSimilarity {
			ctxs[j].grams = buildTextGrams(col)
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		//fdx:lint-ignore detsource worker count only; chunking is fixed-order and results are count-invariant
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
	var wg sync.WaitGroup
	attrCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One span per worker, on its own viewer track so parallel
			// workers fan out as lanes in the trace.
			wsp := tsp.Child("worker")
			wsp.SetTrack(w + 2)
			defer wsp.End()
			sorted := make([]int, n)
			for attr := range attrCh {
				// Cancelled: keep draining the channel so the feeder never
				// blocks, but stop doing work.
				if ctx.Err() != nil {
					continue
				}
				bsp := wsp.Child("block")
				bsp.Attr("attr", rel.Columns[attr].Name)
				faults.Sleep(faults.SlowStage)
				copy(sorted, rows)
				col := rel.Columns[attr]
				sort.SliceStable(sorted, func(a, b int) bool {
					return col.Code(sorted[a]) < col.Code(sorted[b])
				})
				base := attr * n
				for j := 0; j < n; j++ {
					if j&0xfff == 0 && ctx.Err() != nil {
						break
					}
					a := sorted[j]
					b := sorted[(j+1)%n]
					row := out.Row(base + j)
					for l := range ctxs {
						if cellsEqual(&ctxs[l], a, b, &opts) {
							row[l] = 1
						} else {
							row[l] = 0
						}
					}
				}
				bsp.End()
			}
		}(w)
	}
	for attr := 0; attr < k; attr++ {
		attrCh <- attr
	}
	close(attrCh)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fdxerr.Cancelled(err)
	}
	opts.Obs.Count(obs.MTransformPairs, uint64(n)*uint64(k))
	return out, nil
}

// transformDims returns the shape of the transform's sample block: the
// effective tuple count after MaxRows sampling and the attribute count.
// The output matrix is (rows·cols) × cols. opts must have defaults
// applied.
func transformDims(rel *dataset.Relation, opts *TransformOptions) (rows, cols int) {
	rows, cols = rel.NumRows(), rel.NumCols()
	if opts.MaxRows > 0 && rows > opts.MaxRows {
		rows = opts.MaxRows
	}
	return rows, cols
}

// colCtx is the per-attribute comparison context shared by the transform
// workers: the column, its numeric tolerance scale, and — for text
// columns under TextSimilarity — per-dictionary-code 3-gram sets built
// once up front, so the pair loop never allocates.
type colCtx struct {
	col   *dataset.Column
	scale float64
	grams *textGrams
}

// numericScale returns a robust per-column value scale (max−min over the
// sampled rows) used for relative numeric tolerance.
// (fdx:numeric-kernel: max == min is the degenerate constant-column
// sentinel; any genuinely tiny range is still a valid scale.)
func numericScale(col *dataset.Column, rows []int) float64 {
	min, max := math.Inf(1), math.Inf(-1)
	for _, i := range rows {
		v := col.Float(i)
		if math.IsNaN(v) {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if math.IsInf(min, 1) || max == min {
		return 1
	}
	return max - min
}

// cellsEqual is the per-type difference operator of §4.1: exact code
// equality for categorical data, tolerance-based equality for numeric data,
// optional q-gram similarity for text (against the precomputed per-code
// gram sets in cc).
func cellsEqual(cc *colCtx, a, b int, opts *TransformOptions) bool {
	col := cc.col
	ca, cb := col.Code(a), col.Code(b)
	if ca == dataset.Missing || cb == dataset.Missing {
		return false
	}
	if ca == cb {
		return true
	}
	switch col.Type {
	case dataset.Numeric:
		fa, fb := col.Float(a), col.Float(b)
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return false
		}
		return math.Abs(fa-fb) <= opts.NumericTol*cc.scale
	case dataset.Text:
		if cc.grams == nil {
			return false
		}
		return cc.grams.jaccard(ca, cb) >= opts.TextThreshold
	default:
		return false
	}
}

// textGrams caches, per dictionary code of one text column, the
// case-folded value and its 3-gram set (nil for values shorter than one
// gram). Built once per transform so the pair loop compares precomputed
// sets instead of re-deriving them per pair. A set is the sorted,
// deduplicated byte trigrams of the value, each packed into the low 24
// bits of a uint32: packing is exact, so the Jaccard values equal those
// of jaccard3gram's string sets.
type textGrams struct {
	lower []string
	grams [][]uint32
}

func buildTextGrams(col *dataset.Column) *textGrams {
	card := col.Cardinality()
	tg := &textGrams{lower: make([]string, card), grams: make([][]uint32, card)}
	for c := 0; c < card; c++ {
		s := strings.ToLower(col.DictValue(int32(c)))
		tg.lower[c] = s
		if len(s) >= 3 {
			tg.grams[c] = packedGrams(s)
		}
	}
	return tg
}

// packedGrams returns the sorted, deduplicated byte trigrams of s
// (len(s) ≥ 3), each packed as s[i]<<16 | s[i+1]<<8 | s[i+2].
func packedGrams(s string) []uint32 {
	g := make([]uint32, 0, len(s)-2)
	for i := 0; i+3 <= len(s); i++ {
		g = append(g, uint32(s[i])<<16|uint32(s[i+1])<<8|uint32(s[i+2]))
	}
	slices.Sort(g)
	return slices.Compact(g)
}

// jaccard is the Jaccard similarity of the 3-gram sets of two dictionary
// codes, by merge intersection of their sorted sets: short values fall
// back to exact (case-folded) comparison.
func (tg *textGrams) jaccard(ca, cb int32) float64 {
	ga, gb := tg.grams[ca], tg.grams[cb]
	if ga == nil || gb == nil {
		if tg.lower[ca] == tg.lower[cb] {
			return 1
		}
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(ga) && j < len(gb); {
		switch {
		case ga[i] < gb[j]:
			i++
		case ga[i] > gb[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(ga)+len(gb)-inter)
}

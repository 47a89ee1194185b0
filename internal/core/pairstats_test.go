package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fdx/internal/dataset"
	"fdx/internal/linalg"
	"fdx/internal/stats"
)

// The fused pair-statistics kernel is checked bit for bit against the
// dense reference chain it replaces: Transform's (n·k)×k sample matrix,
// folded by stats.StratifiedCovariance / stats.Covariance, and — for the
// accumulator — by accumulateStratum below.

// accumulateStratum is the dense reference of a stratum's count triangle:
// it folds the sn sample rows of stratum s of a Transform matrix into the
// upper triangle of the outer-product sum out, via fused Axpy updates over
// each row's tail. On 0/1 samples out[l][m], m ≥ l, counts the pairs
// agreeing on both l and m.
// Panics if out is not k×k or dt's rows cannot cover the stratum.
func accumulateStratum(dt *linalg.Dense, s, sn int, out *linalg.Dense) {
	_, k := dt.Dims()
	if r, c := out.Dims(); r != k || c != k {
		panic("core: accumulateStratum outer product is not k×k")
	}
	if (s+1)*sn > dt.Rows() {
		panic("core: accumulateStratum stratum exceeds transform rows")
	}
	for i := 0; i < sn; i++ {
		row := dt.Row(s*sn + i)
		for p := 0; p < k; p++ {
			if vp := row[p]; vp != 0 {
				linalg.Axpy(vp, row[p:], out.Row(p)[p:])
			}
		}
	}
}

// checkCountTriangles compares k strata's packed count triangles against
// accumulateStratum over the n-pair strata of the sample matrix dt, bit
// for bit.
func checkCountTriangles(t *testing.T, label string, counts []float64, dt *linalg.Dense, n, k int) {
	t.Helper()
	size, off := k*(k+1)/2, rowOffsets(k)
	for s := 0; s < k && n > 0; s++ {
		out := linalg.NewDense(k, k)
		accumulateStratum(dt, s, n, out)
		for l := 0; l < k; l++ {
			for m := l; m < k; m++ {
				if got, want := counts[s*size+off[l]+m], out.At(l, m); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s stratum %d count (%d,%d) = %v, want %v", label, s, l, m, got, want)
				}
			}
		}
	}
}

// jaccard3gram is the reference 3-gram Jaccard similarity over string
// sets (case-folded); short strings fall back to exact comparison. The
// transform's packed trigram sets must reproduce it exactly.
func jaccard3gram(a, b string) float64 {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if len(a) < 3 || len(b) < 3 {
		if a == b {
			return 1
		}
		return 0
	}
	ga, gb := gramSet(a), gramSet(b)
	inter := 0
	for g := range ga {
		if gb[g] {
			inter++
		}
	}
	return float64(inter) / float64(len(ga)+len(gb)-inter)
}

func gramSet(s string) map[string]bool {
	out := make(map[string]bool, len(s))
	for i := 0; i+3 <= len(s); i++ {
		out[s[i:i+3]] = true
	}
	return out
}

// textPool mixes near-duplicates, case variants, short values and
// multi-byte UTF-8, so similarity ties and byte-level trigrams of
// non-ASCII text are exercised.
var textPool = []string{
	"chicago", "chicagoo", "Chicago", "chicag", "ab", "AB", "a", "",
	"3435 W Washington Ave", "3435 W Washington Av", "naïve café", "naive cafe",
	"über", "Über", "日本語テキスト", "日本語テキス", "ñññ", "ÑÑÑ",
}

// numPool has exact ties under a tolerance of 1/8 of the range 0..8,
// NaN, and a non-numeric value (parsed as NaN).
var numPool = []string{"0", "1", "2", "2.5", "3", "8", "NaN", "x"}

// randomRelation builds an n×k relation with a random type per column and
// about 1 missing cell in 8.
func randomRelation(rng *rand.Rand, n, k int) *dataset.Relation {
	rel := &dataset.Relation{Name: "r"}
	for j := 0; j < k; j++ {
		typ := dataset.Type(rng.Intn(3))
		col := dataset.NewColumn(fmt.Sprintf("c%d", j), typ)
		card := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			if rng.Intn(8) == 0 {
				col.AppendMissing()
				continue
			}
			switch typ {
			case dataset.Numeric:
				col.AppendValue(numPool[rng.Intn(len(numPool))])
			case dataset.Text:
				col.AppendValue(textPool[rng.Intn(len(textPool))])
			default:
				col.AppendValue(fmt.Sprintf("v%d", rng.Intn(card)))
			}
		}
		rel.Columns = append(rel.Columns, col)
	}
	return rel
}

// randomOptions draws pipeline options over every knob the kernel reads.
func randomOptions(rng *rand.Rand, n int) Options {
	opts := Options{Seed: rng.Int63n(100), PooledCovariance: rng.Intn(4) == 0}
	opts.Transform.Workers = []int{1, 2, 8}[rng.Intn(3)]
	opts.Workers = opts.Transform.Workers
	opts.Transform.TextSimilarity = rng.Intn(2) == 0
	opts.Transform.TextThreshold = []float64{0, 0.5}[rng.Intn(2)]
	opts.Transform.NumericTol = []float64{0, 0.125, 0.3}[rng.Intn(3)]
	if n > 2 && rng.Intn(3) == 0 {
		opts.Transform.MaxRows = 2 + rng.Intn(n-2)
	}
	return opts
}

// denseCovariance is the reference S: Transform, then the stratified (or
// pooled) covariance of the sample matrix.
func denseCovariance(t *testing.T, rel *dataset.Relation, opts Options) *linalg.Dense {
	t.Helper()
	opts.defaults()
	dt, err := TransformContext(context.Background(), rel, opts.Transform)
	if err != nil {
		t.Fatal(err)
	}
	if opts.PooledCovariance {
		return stats.Covariance(dt)
	}
	return stats.StratifiedCovariance(dt, rel.NumCols())
}

func kernelCovariance(t *testing.T, rel *dataset.Relation, opts Options) *linalg.Dense {
	t.Helper()
	opts.defaults()
	s, err := pairCovariance(context.Background(), rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bitsEqual reports the first element where a and b differ in bits.
func bitsEqual(a, b *linalg.Dense) (string, bool) {
	ar, ac := a.Dims()
	if br, bc := b.Dims(); ar != br || ac != bc {
		return fmt.Sprintf("dims %dx%d vs %dx%d", ar, ac, br, bc), false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return fmt.Sprintf("element %d: %v vs %v", i, v, b.Data()[i]), false
		}
	}
	return "", true
}

func TestPairCovarianceMatchesDenseOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 2+rng.Intn(60), 1+rng.Intn(7)
		rel := randomRelation(rng, n, k)
		opts := randomOptions(rng, n)
		if where, ok := bitsEqual(kernelCovariance(t, rel, opts), denseCovariance(t, rel, opts)); !ok {
			t.Logf("seed %d (n=%d k=%d opts=%+v): %s", seed, n, k, opts.Transform, where)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPairCovarianceSpansChunks covers strata longer than one bitset
// chunk, where counts accumulate across chunks and the last chunk is
// partial.
func TestPairCovarianceSpansChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel := randomRelation(rng, 2*pairChunk+77, 5)
	for _, pooled := range []bool{false, true} {
		opts := Options{Seed: 3, PooledCovariance: pooled}
		opts.Transform.TextSimilarity = true
		if where, ok := bitsEqual(kernelCovariance(t, rel, opts), denseCovariance(t, rel, opts)); !ok {
			t.Errorf("pooled=%v: %s", pooled, where)
		}
	}
}

func TestPairCovarianceEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range [][2]int{{0, 3}, {1, 3}, {2, 1}, {2, 4}, {5, 1}} {
		rel := randomRelation(rng, shape[0], shape[1])
		for _, pooled := range []bool{false, true} {
			opts := Options{Seed: 1, PooledCovariance: pooled}
			if where, ok := bitsEqual(kernelCovariance(t, rel, opts), denseCovariance(t, rel, opts)); !ok {
				t.Errorf("n=%d k=%d pooled=%v: %s", shape[0], shape[1], pooled, where)
			}
		}
	}
}

// TestDiscoverMatchesDenseOracle carries the comparison through the whole
// pipeline: DiscoverContext on the kernel must give Θ, B, the order and
// the FDs of DiscoverFromSamplesContext on the dense sample matrix, bit
// for bit.
func TestDiscoverMatchesDenseOracle(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 2+rng.Intn(80), 1+rng.Intn(6)
		rel := randomRelation(rng, n, k)
		opts := randomOptions(rng, n)
		got, gerr := DiscoverContext(ctx, rel, opts)
		ref := opts
		ref.defaults()
		dt, err := TransformContext(ctx, rel, ref.Transform)
		if err != nil {
			t.Fatal(err)
		}
		want, werr := DiscoverFromSamplesContext(ctx, dt, rel.AttrNames(), ref)
		if gerr != nil || werr != nil {
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Logf("seed %d: errors differ: %v vs %v", seed, gerr, werr)
				return false
			}
			return true
		}
		for name, pair := range map[string][2]*linalg.Dense{"Theta": {got.Theta, want.Theta}, "B": {got.B, want.B}} {
			if where, ok := bitsEqual(pair[0], pair[1]); !ok {
				t.Logf("seed %d: %s differs: %s", seed, name, where)
				return false
			}
		}
		if fmt.Sprint(got.Order) != fmt.Sprint(want.Order) || len(got.FDs) != len(want.FDs) {
			t.Logf("seed %d: order %v vs %v, %d vs %d FDs", seed, got.Order, want.Order, len(got.FDs), len(want.FDs))
			return false
		}
		for i, fd := range got.FDs {
			w := want.FDs[i]
			if fd.String() != w.String() || math.Float64bits(fd.Score) != math.Float64bits(w.Score) {
				t.Logf("seed %d: FD %d is %v (%v), want %v (%v)", seed, i, fd, fd.Score, w, w.Score)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// typedRelation builds an n-row relation whose k columns all have type
// typ, for per-type coverage.
func typedRelation(rng *rand.Rand, typ dataset.Type, n, k int) *dataset.Relation {
	rel := randomRelation(rng, n, k)
	for j, col := range rel.Columns {
		typed := dataset.NewColumn(col.Name, typ)
		for i := 0; i < n; i++ {
			switch {
			case rng.Intn(8) == 0:
				typed.AppendMissing()
			case typ == dataset.Numeric:
				typed.AppendValue(numPool[rng.Intn(len(numPool))])
			case typ == dataset.Text:
				typed.AppendValue(textPool[rng.Intn(len(textPool))])
			default:
				typed.AppendValue(fmt.Sprintf("v%d", rng.Intn(3)))
			}
		}
		rel.Columns[j] = typed
	}
	return rel
}

// TestAbsorbDeltaMatchesDenseOracle checks the accumulator's batch delta
// against the dense reference — Transform at the batch's seed, folded per
// stratum by accumulateStratum — bit for bit, for every column type.
func TestAbsorbDeltaMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []struct {
		name    string
		typ     dataset.Type
		textSim bool
	}{
		{"categorical", dataset.Categorical, false},
		{"numeric", dataset.Numeric, false},
		{"text", dataset.Text, false},
		{"text-similarity", dataset.Text, true},
		{"mixed", -1, true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			n, k := 2+rng.Intn(90), 1+rng.Intn(6)
			rel := randomRelation(rng, n, k)
			if tc.typ >= 0 {
				rel = typedRelation(rng, tc.typ, n, k)
			}
			opts := Options{Seed: 5}
			opts.Transform.Workers = workers
			opts.Transform.TextSimilarity = tc.textSim
			opts.Transform.NumericTol = 0.125
			const global = 3
			d, err := NewAccumulator(rel.AttrNames(), opts).AbsorbAt(rel, global)
			if err != nil {
				t.Fatal(err)
			}
			topts := opts.Transform
			topts.Seed = opts.Seed + global
			if d.Pairs != n {
				t.Fatalf("%s workers=%d: delta counts %d pairs, want %d", tc.name, workers, d.Pairs, n)
			}
			checkCountTriangles(t, fmt.Sprintf("%s workers=%d", tc.name, workers), d.Counts, Transform(rel, topts), n, k)
		}
	}
}

func TestPackedGramsMatchJaccard3Gram(t *testing.T) {
	col := dataset.NewColumn("s", dataset.Text)
	for _, v := range textPool {
		col.AppendValue(v)
	}
	check := func(a, b int32) {
		got := buildTextGrams(col).jaccard(a, b)
		want := jaccard3gram(col.DictValue(a), col.DictValue(b))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("jaccard(%q, %q) = %v, want %v", col.DictValue(a), col.DictValue(b), got, want)
		}
	}
	card := int32(col.Cardinality())
	for a := int32(0); a < card; a++ {
		for b := int32(0); b < card; b++ {
			check(a, b)
		}
	}
	// Random byte strings: any byte value, any length, repeated trigrams.
	f := func(x, y []byte) bool {
		c := dataset.NewColumn("q", dataset.Text)
		c.AppendValue(string(x))
		c.AppendValue(string(y))
		a, b := c.Code(0), c.Code(1)
		got := buildTextGrams(c).jaccard(a, b)
		return math.Float64bits(got) == math.Float64bits(jaccard3gram(c.DictValue(a), c.DictValue(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// fuzzRelation decodes fuzz bytes into a small relation and options: a
// header byte picks k, n and the options, and each following byte is one
// cell (255 = missing), filling the relation column by column.
func fuzzRelation(data []byte) (*dataset.Relation, Options) {
	if len(data) < 2 {
		return nil, Options{}
	}
	h, t := data[0], data[1]
	k := 1 + int(h%5)
	n := int(t % 48)
	opts := Options{Seed: int64(h >> 3), PooledCovariance: t&0x80 != 0}
	opts.Transform.TextSimilarity = h&0x20 != 0
	opts.Transform.NumericTol = float64(t>>6&1) * 0.125
	opts.Transform.Workers = 1 + int(h>>6)
	if n > 2 && h&0x40 != 0 {
		opts.Transform.MaxRows = n - 1
	}
	cells := data[2:]
	rel := &dataset.Relation{Name: "fuzz"}
	for j := 0; j < k; j++ {
		typ := dataset.Type(j % 3)
		col := dataset.NewColumn(fmt.Sprintf("c%d", j), typ)
		for i := 0; i < n; i++ {
			var b byte
			if at := j*n + i; at < len(cells) {
				b = cells[at]
			}
			switch {
			case b == 255:
				col.AppendMissing()
			case typ == dataset.Numeric:
				col.AppendValue(numPool[int(b)%len(numPool)])
			case typ == dataset.Text:
				col.AppendValue(textPool[int(b)%len(textPool)])
			default:
				col.AppendValue(fmt.Sprintf("v%d", b%7))
			}
		}
		rel.Columns = append(rel.Columns, col)
	}
	return rel, opts
}

// FuzzPairMoments checks the kernel's per-stratum counts and S against
// the dense reference on fuzzer-chosen relations and options.
func FuzzPairMoments(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 1, 1, 2, 2, 255})
	f.Add([]byte{0xff, 0xff, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 255})
	f.Add([]byte{0x24, 0x30, 9, 9, 9, 1, 2, 200, 201, 17, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, opts := fuzzRelation(data)
		if rel == nil {
			return
		}
		if where, ok := bitsEqual(kernelCovariance(t, rel, opts), denseCovariance(t, rel, opts)); !ok {
			t.Fatalf("S differs: %s", where)
		}
		topts := opts.Transform
		topts.defaults()
		k := rel.NumCols()
		counts := make([]float64, CountsLen(k))
		n, err := pairCounts(context.Background(), rel, topts, counts)
		if err != nil {
			t.Fatal(err)
		}
		checkCountTriangles(t, "fuzz", counts, Transform(rel, topts), n, k)
	})
}

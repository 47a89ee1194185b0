package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"fdx/internal/dataset"
	"fdx/internal/stats"
)

func TestAccumulatorSchemaChecks(t *testing.T) {
	a := NewAccumulator([]string{"a", "b"}, Options{})
	wrong := dataset.New("t", "a")
	wrong.AppendRow([]string{"1"})
	wrong.AppendRow([]string{"2"})
	if err := a.Add(wrong); err == nil {
		t.Error("wrong column count accepted")
	}
	renamed := dataset.New("t", "a", "c")
	renamed.AppendRow([]string{"1", "2"})
	renamed.AppendRow([]string{"1", "2"})
	if err := a.Add(renamed); err == nil {
		t.Error("renamed attribute accepted")
	}
	tiny := dataset.New("t", "a", "b")
	tiny.AppendRow([]string{"1", "2"})
	if err := a.Add(tiny); err == nil {
		t.Error("single-row batch accepted")
	}
	if _, err := a.Discover(); err == nil {
		t.Error("empty accumulator discover should fail")
	}
}

// mixedFDRelation is makeFDRelation plus a numeric column determined by a
// and a text column determined by c, each drawn with near-duplicate
// values, so NumericTol and TextSimilarity change which pairs agree.
func mixedFDRelation(rng *rand.Rand, n int) *dataset.Relation {
	rel := makeFDRelation(rng, n, 0.02)
	texts := [][]string{
		{"chicago", "chicagoo"},
		{"3435 W Washington Ave", "3435 W Washington Av"},
		{"naïve café", "naive cafe"},
		{"日本語テキスト", "日本語テキス"},
	}
	x := dataset.NewColumn("x", dataset.Numeric)
	s := dataset.NewColumn("s", dataset.Text)
	for i := 0; i < n; i++ {
		a, c := int(rel.Columns[0].Code(i)), int(rel.Columns[2].Code(i))
		x.AppendValue(strconv.FormatFloat(float64(a)+0.01*float64(rng.Intn(3)), 'g', -1, 64))
		s.AppendValue(texts[c%len(texts)][rng.Intn(2)])
	}
	rel.Columns = append(rel.Columns, x, s)
	return rel
}

// TestAccumulatorSingleBatchMatchesDiscover pins the stream to batch
// discovery: one Add followed by Discover is Discover, bit for bit — S,
// B, Θ, the order and the FDs — because both count the batch's pairs with
// the same kernel and evaluate S from the counts through countCovariance.
// MaxRows values below n check that S divides by the pairs counted, not
// the rows absorbed.
func TestAccumulatorSingleBatchMatchesDiscover(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{333, 400, 1000} {
		rel := mixedFDRelation(rng, n)
		for _, maxRows := range []int{0, 100, 257} {
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("n=%d/maxrows=%d/workers=%d", n, maxRows, workers)
				opts := Options{Seed: 7, Workers: workers}
				opts.Transform = TransformOptions{MaxRows: maxRows, NumericTol: 0.125, TextSimilarity: true, Workers: workers}
				want, err := Discover(rel, opts)
				if err != nil {
					t.Fatal(err)
				}
				a := NewAccumulator(rel.AttrNames(), opts)
				if err := a.Add(rel); err != nil {
					t.Fatal(err)
				}
				s, err := a.Covariance()
				if err != nil {
					t.Fatal(err)
				}
				if where, ok := bitsEqual(s, kernelCovariance(t, rel, opts)); !ok {
					t.Fatalf("%s: S differs from batch discovery: %s", name, where)
				}
				got, err := a.Discover()
				if err != nil {
					t.Fatal(err)
				}
				if where, ok := bitsEqual(got.B, want.B); !ok {
					t.Fatalf("%s: B differs: %s", name, where)
				}
				if where, ok := bitsEqual(got.Theta, want.Theta); !ok {
					t.Fatalf("%s: Θ differs: %s", name, where)
				}
				if !reflect.DeepEqual(got.Order, want.Order) {
					t.Fatalf("%s: order %v, want %v", name, got.Order, want.Order)
				}
				if !reflect.DeepEqual(got.FDs, want.FDs) {
					t.Fatalf("%s: FDs %s, want %s", name, got.FormatFDs(), want.FormatFDs())
				}
			}
		}
	}
}

func TestAccumulatorIncrementalDiscovery(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewAccumulator([]string{"a", "b", "c", "d"}, Options{Seed: 6})
	// Stream five batches from the same distribution.
	for batch := 0; batch < 5; batch++ {
		rel := makeFDRelation(rng, 300, 0.01)
		if err := a.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	if a.Rows() != 1500 || a.Batches() != 5 {
		t.Errorf("rows=%d batches=%d", a.Rows(), a.Batches())
	}
	m, err := a.Discover()
	if err != nil {
		t.Fatal(err)
	}
	edges := edgeSet(m.FDs)
	und := func(x, y int) bool { return edges[[2]int{x, y}] || edges[[2]int{y, x}] }
	if !und(0, 1) {
		t.Errorf("streamed discovery lost a—b: %s", m.FormatFDs())
	}
	if !und(3, 2) {
		t.Errorf("streamed discovery lost c—d: %s", m.FormatFDs())
	}
}

func TestAccumulatorMatchesFullRecomputeApproximately(t *testing.T) {
	// The incremental estimate (pairs within batches) should stay close to
	// the full recompute on the concatenation.
	rng := rand.New(rand.NewSource(7))
	full := dataset.New("t", "a", "b", "c", "d")
	a := NewAccumulator(full.AttrNames(), Options{Seed: 8})
	for batch := 0; batch < 4; batch++ {
		rel := makeFDRelation(rng, 500, 0)
		for i := 0; i < rel.NumRows(); i++ {
			full.AppendRow(rel.Row(i))
		}
		if err := a.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	inc, err := a.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	dt := Transform(full, TransformOptions{Seed: 8})
	batchCov := stats.StratifiedCovariance(dt, full.NumCols())
	// Same sign structure and magnitudes within a loose tolerance. The
	// batches draw fresh random FD lookup tables, so only coarse agreement
	// is expected on off-diagnonal strength.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if d := inc.At(i, j) - batchCov.At(i, j); d > 0.2 || d < -0.2 {
				t.Errorf("covariance (%d,%d): incremental %v vs full %v", i, j, inc.At(i, j), batchCov.At(i, j))
			}
		}
	}
}

// TestAccumulateStratumZeroAlloc pins the absorb inner loop — the pair
// kernel's per-stratum sort, compare and count — at zero allocations per
// stratum once its pooled scratch is warm: the kernel works entirely in
// that scratch and the caller's count buffer, so steady-state absorption
// costs only the per-batch delta bookkeeping.
func TestAccumulateStratumZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := randomRelation(rng, 300, 8)
	opts := TransformOptions{TextSimilarity: true}
	opts.defaults()
	pk, err := newPairKernel(context.Background(), rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pk.release()
	k := rel.NumCols()
	off := rowOffsets(k)
	out := make([]float64, k*(k+1)/2)
	sc := getPairScratch()
	defer pairPool.Put(sc)
	pk.stratum(context.Background(), 2, sc, off, out)
	allocs := testing.AllocsPerRun(10, func() {
		pk.stratum(context.Background(), 2, sc, off, out)
	})
	if allocs != 0 {
		t.Fatalf("the pair kernel allocates %.1f times per stratum, want 0", allocs)
	}
}

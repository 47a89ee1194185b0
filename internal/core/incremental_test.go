package core

import (
	"context"
	"math/rand"
	"testing"

	"fdx/internal/dataset"
	"fdx/internal/linalg"
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

func TestAccumulatorSingleBatchMatchesBatchCovariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := makeFDRelation(rng, 400, 0)
	a := NewAccumulator(rel.AttrNames(), Options{Seed: 7})
	if err := a.Add(rel); err != nil {
		t.Fatal(err)
	}
	got, err := a.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	dt := Transform(rel, TransformOptions{Seed: 7})
	want := stats.StratifiedCovariance(dt, rel.NumCols())
	if d := linalg.MaxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("single-batch covariance differs from batch estimator by %v", d)
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
	off := rowOffsets(k, false)
	out := make([]float64, k*k)
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

package glasso

import (
	"math/rand"
	"testing"

	"fdx/internal/linalg"
)

// spdCovariance builds a well-conditioned random covariance estimate.
func spdCovariance(rng *rand.Rand, k int) *linalg.Dense {
	g := linalg.NewDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			g.Set(i, j, rng.NormFloat64())
		}
	}
	s := linalg.Mul(g, g.Transpose())
	s.Scale(1 / float64(k))
	for i := 0; i < k; i++ {
		s.Add(i, i, 0.5)
	}
	s.Symmetrize()
	return s
}

func assertBitIdentical(t *testing.T, name string, want, got *linalg.Dense) {
	t.Helper()
	wr, wc := want.Dims()
	gr, gc := got.Dims()
	if wr != gr || wc != gc {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, wr, wc, gr, gc)
	}
	for i, v := range want.Data() {
		if v != got.Data()[i] {
			t.Fatalf("%s: element %d differs bit-for-bit: %v vs %v", name, i, v, got.Data()[i])
		}
	}
}

// TestSolveBitIdenticalAcrossWorkers checks the headline determinism
// contract: W and Θ are bit-for-bit equal at every worker count.
func TestSolveBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := spdCovariance(rng, 37) // odd size: exercises chunk remainders
	base, err := Solve(s, Options{Lambda: 0.1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		res, err := Solve(s, Options{Lambda: 0.1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Iterations != base.Iterations || res.Converged != base.Converged {
			t.Fatalf("workers=%d: iterations/converged differ: %d/%v vs %d/%v",
				workers, res.Iterations, res.Converged, base.Iterations, base.Converged)
		}
		assertBitIdentical(t, "covariance", base.Covariance, res.Covariance)
		assertBitIdentical(t, "precision", base.Precision, res.Precision)
	}
}

// TestSweepZeroAllocSteadyState is the zero-allocation gate on the glasso
// hot loop: once the workspace pool is warm, a full serial sweep —
// extract, lassoCD, write-back — performs zero heap allocations.
func TestSweepZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	k := 24
	s := spdCovariance(rng, k)
	w := s.Clone()
	for i := 0; i < k; i++ {
		w.Add(i, i, 0.1)
	}
	ws := getWorkspace(k)
	defer putWorkspace(ws)
	ws.s, ws.w = s, w
	ws.runSweep(0.1, 200, 1e-6) // warm up
	allocs := testing.AllocsPerRun(10, func() {
		ws.runSweep(0.1, 200, 1e-6)
	})
	if allocs > 0 {
		t.Errorf("glasso sweep steady state allocates %.1f times per op, want 0", allocs)
	}
}

// TestLassoCDZeroAlloc gates the inner solver specifically.
func TestLassoCDZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	q := spdCovariance(rng, 16)
	b := make([]float64, 16)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	beta := make([]float64, 16)
	grad := make([]float64, 16)
	allocs := testing.AllocsPerRun(10, func() {
		for i := range beta {
			beta[i] = 0
		}
		lassoCD(q, b, 0.1, beta, 200, 1e-6, grad)
	})
	if allocs > 0 {
		t.Errorf("lassoCD allocates %.1f times per op, want 0", allocs)
	}
}

// TestSolveWorkspaceReuse checks solves of different sizes interleave
// safely through the workspace pool.
func TestSolveWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, k := range []int{5, 12, 5, 33, 12} {
		s := spdCovariance(rng, k)
		res, err := Solve(s, Options{Lambda: 0.1})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Θ must be the inverse structure of W: Θ·W ≈ I on the diagonal.
		prod := linalg.Mul(res.Precision, res.Covariance)
		for i := 0; i < k; i++ {
			if d := prod.At(i, i) - 1; d > 0.05 || d < -0.05 {
				t.Fatalf("k=%d: (ΘW)[%d][%d] = %v, want ≈1", k, i, i, prod.At(i, i))
			}
		}
	}
}

func BenchmarkSolveWorkers1(b *testing.B) { benchSolveWorkers(b, 64, 1) }
func BenchmarkSolveWorkers8(b *testing.B) { benchSolveWorkers(b, 64, 8) }

func benchSolveWorkers(b *testing.B, k, workers int) {
	rng := rand.New(rand.NewSource(46))
	s := spdCovariance(rng, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(s, Options{Lambda: 0.1, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// Package stats provides the statistical primitives shared across FDX and
// the baselines: empirical covariance/correlation, discrete entropies and
// mutual information, the expected mutual information under the permutation
// model (the bias correction used by the RFI baseline), and a chi-squared
// independence test (used by the CORDS baseline).
package stats

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"fdx/internal/linalg"
	"fdx/internal/par"
)

// vecPool recycles the per-call scratch vectors (column sums, standard
// deviations) of the moment routines so the streaming accumulator's
// steady state allocates only its result matrices.
var vecPool = sync.Pool{New: func() any { return &vecBuf{} }}

type vecBuf struct{ data []float64 }

// getVec returns a zeroed length-k scratch vector from the pool.
func getVec(k int) *vecBuf {
	vb := vecPool.Get().(*vecBuf)
	if cap(vb.data) < k {
		vb.data = make([]float64, k)
	}
	vb.data = vb.data[:k]
	for i := range vb.data {
		vb.data[i] = 0
	}
	return vb
}

// Mean returns the column means of data (rows are observations).
func Mean(data *linalg.Dense) []float64 {
	n, k := data.Dims()
	mu := make([]float64, k)
	if n == 0 {
		return mu
	}
	for i := 0; i < n; i++ {
		linalg.Axpy(1, data.Row(i), mu)
	}
	for j := range mu {
		mu[j] /= float64(n)
	}
	return mu
}

// accumulateMoments is Covariance's single traversal: one pass over the
// rows of data, adding each row to the column sums and each row's outer
// product to the upper triangle of s via fused Axpy updates.
// Panics if s is not k×k or sums not length k for data's column count k.
// (fdx:numeric-kernel: the exact-zero test is a sparsity fast path over the
// mostly-zero pair-transform samples — a zero multiplier contributes
// nothing to the accumulation.)
func accumulateMoments(data *linalg.Dense, sums []float64, s *linalg.Dense) {
	n, k := data.Dims()
	if r, c := s.Dims(); r != k || c != k || len(sums) != k {
		panic("stats: accumulateMoments operand shapes disagree")
	}
	for i := 0; i < n; i++ {
		row := data.Row(i)
		linalg.Axpy(1, row, sums)
		for a := 0; a < k; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			linalg.Axpy(va, row[a:], s.Row(a)[a:])
		}
	}
}

// Covariance returns the empirical covariance matrix of data (rows are
// observations, columns variables), normalizing by n. Sums and raw second
// moments accumulate in a single traversal; the centering correction
// cov = E[xy] − E[x]·E[y] is applied at the end, with the diagonal clamped
// at zero so round-off on near-constant columns can never produce a
// negative variance.
func Covariance(data *linalg.Dense) *linalg.Dense {
	n, k := data.Dims()
	s := linalg.NewDense(k, k)
	if n == 0 {
		return s
	}
	vb := getVec(k)
	sums := vb.data
	accumulateMoments(data, sums, s)
	inv := 1 / float64(n)
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			v := centered(s.At(a, b), sums[a], sums[b], inv, a == b)
			s.Set(a, b, v)
			s.Set(b, a, v)
		}
	}
	vecPool.Put(vb)
	return s
}

// centered is Covariance's per-entry formula: the raw moment sum sab of
// columns a and b, centered by their sums sa and sb, all scaled by
// inv = 1/n. A diagonal entry is clamped at zero so round-off on a
// near-constant column can never produce a negative variance. Covariance
// and the count covariances below all evaluate it, so equal moment sums
// give equal bits whichever route produced them.
func centered(sab, sa, sb, inv float64, diag bool) float64 {
	v := sab*inv - (sa*inv)*(sb*inv)
	if diag && v < 0 {
		v = 0
	}
	return v
}

// Covariances from agreement counts. For n observations of k 0/1
// variables, a count triangle is the upper triangle of the count matrix C
// packed row by row — entry (a, b), a ≤ b, at a·k − a(a−1)/2 + (b−a);
// k(k+1)/2 entries in all — where C[a][b] counts the observations with
// both a and b set, so C[a][a] is column a's sum. Those are exactly the
// moment sums Covariance accumulates from 0/1 rows, as exact integers, so
// a covariance evaluated from counts is bit-identical to one accumulated
// from the samples.

// PooledCountCovariance is Covariance of the union of strata: tris holds
// the strata's count triangles back to back, each over n observations.
// The strata's counts are summed (exactly: they are integers) and centered
// over all n·strata observations. Panics unless len(tris) is a multiple of
// k(k+1)/2.
func PooledCountCovariance(n int, tris []float64, k int) *linalg.Dense {
	size := k * (k + 1) / 2
	pooled := make([]float64, size)
	strata := foldCounts(tris, size, func(tri []float64) { linalg.Axpy(1, tri, pooled) })
	acc := make([]float64, size)
	addCountCovariance(acc, k, n*strata, pooled)
	s := linalg.NewDense(k, k)
	linalg.UnpackSymUpper(s, acc)
	return s
}

// StratifiedCountCovariance is StratifiedCovariance from per-stratum
// counts: tris holds the strata's count triangles back to back, each over
// n observations. Each stratum's covariance is folded into the sum in
// ascending stratum order before the 1/strata scale — the same additions
// in the same order as StratifiedCovariance — so the result is
// bit-identical to it on the 0/1 sample matrix the counts summarize.
// Panics unless len(tris) is a multiple of k(k+1)/2.
func StratifiedCountCovariance(n int, tris []float64, k int) *linalg.Dense {
	acc := make([]float64, k*(k+1)/2)
	strata := foldCounts(tris, len(acc), func(tri []float64) { addCountCovariance(acc, k, n, tri) })
	s := linalg.NewDense(k, k)
	linalg.UnpackSymUpper(s, acc)
	if strata > 0 {
		s.Scale(1 / float64(strata))
	}
	return s
}

// foldCounts calls fn on each count triangle of tris in ascending order
// and returns how many there were. Panics if tris is not a whole number of
// triangles of the given size.
func foldCounts(tris []float64, size int, fn func(tri []float64)) int {
	if size == 0 {
		return 0
	}
	if len(tris)%size != 0 {
		panic("stats: count triangles' length is not a multiple of k(k+1)/2")
	}
	for at := 0; at < len(tris); at += size {
		fn(tris[at : at+size])
	}
	return len(tris) / size
}

// addCountCovariance adds the covariance of one count triangle over n
// observations of k variables into the packed upper triangle acc; with no
// observations it adds nothing, as Covariance of an empty block is zero.
// Panics if the triangles' lengths disagree with k.
func addCountCovariance(acc []float64, k, n int, tri []float64) {
	if len(acc) != k*(k+1)/2 || len(tri) != len(acc) {
		panic("stats: addCountCovariance operand shapes disagree")
	}
	if n == 0 {
		return
	}
	inv := 1 / float64(n)
	at := 0
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			diagB := tri[b*k-b*(b-1)/2]
			acc[at+b-a] += centered(tri[at+b-a], tri[at], diagB, inv, a == b)
		}
		at += k - a
	}
}

// StratifiedCovariance splits the rows of data into `strata` contiguous
// equal-size blocks, computes the covariance within each block, and returns
// the average. FDX's pair transform (Alg. 2) emits one block per attribute
// (pairs adjacent under that attribute's sort order); the blocks have very
// different marginal means, and pooling them into a single covariance
// manufactures spurious negative cross-correlations between unrelated
// attributes. Per-stratum centering removes that sampling artifact while
// keeping every block's dependence signal.
func StratifiedCovariance(data *linalg.Dense, strata int) *linalg.Dense {
	n, k := data.Dims()
	if strata <= 1 || n == 0 || n%strata != 0 {
		return Covariance(data)
	}
	block := n / strata
	acc := linalg.NewDense(k, k)
	// Strata are independent; compute their covariances concurrently.
	// Stratum s owns covs[s], and the merge below folds them in fixed
	// ascending order, so the result is identical at any worker count.
	covs := make([]*linalg.Dense, strata)
	//fdx:lint-ignore detsource worker count only; per-stratum results merge in fixed ascending order
	workers := runtime.GOMAXPROCS(0)
	if workers > strata {
		workers = strata
	}
	pool := par.New(workers)
	pool.For(strata, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			sub := linalg.NewDenseData(block, k, data.Data()[s*block*k:(s+1)*block*k])
			covs[s] = Covariance(sub)
		}
	})
	pool.Close()
	for _, cov := range covs {
		linalg.Axpy(1, cov.Data(), acc.Data())
	}
	acc.Scale(1 / float64(strata))
	return acc
}

// CorrelationInPlace converts the covariance matrix cov to a correlation
// matrix in place and returns it. Zero-variance variables get unit
// diagonal and zero off-diagonals.
// (fdx:numeric-kernel: exact-zero standard deviation is the constant-column
// sentinel; dividing by anything smaller-but-nonzero is still well defined.)
func CorrelationInPlace(cov *linalg.Dense) *linalg.Dense {
	k, _ := cov.Dims()
	vb := getVec(k)
	sd := vb.data
	for i := 0; i < k; i++ {
		sd[i] = math.Sqrt(cov.At(i, i))
	}
	for i := 0; i < k; i++ {
		row := cov.Row(i)
		for j := range row {
			switch {
			case i == j:
				row[j] = 1
			case sd[i] == 0 || sd[j] == 0:
				row[j] = 0
			default:
				row[j] /= sd[i] * sd[j]
			}
		}
	}
	vecPool.Put(vb)
	return cov
}

// Shrink returns (1−γ)·S + γ·trace(S)/k·I as a new matrix. See
// ShrinkInPlace.
func Shrink(s *linalg.Dense, gamma float64) *linalg.Dense {
	return ShrinkInPlace(s.Clone(), gamma)
}

// ShrinkInPlace applies (1−γ)·S + γ·trace(S)/k·I to s in place and
// returns it — a Ledoit-Wolf-style ridge shrinkage that guarantees
// positive definiteness for γ>0 when S is PSD.
// (fdx:numeric-kernel: an exactly-zero trace means S is the zero matrix and
// the identity target is substituted.)
func ShrinkInPlace(s *linalg.Dense, gamma float64) *linalg.Dense {
	k, _ := s.Dims()
	tr := 0.0
	for i := 0; i < k; i++ {
		tr += s.At(i, i)
	}
	target := tr / float64(k)
	if target == 0 {
		target = 1
	}
	s.Scale(1 - gamma)
	for i := 0; i < k; i++ {
		s.Add(i, i, gamma*target)
	}
	return s
}

// Standardize mean-centers and unit-scales each column of data in place.
// Zero-variance columns are centered only. It returns the per-column means
// and standard deviations used.
func Standardize(data *linalg.Dense) (mu, sd []float64) {
	n, k := data.Dims()
	mu = Mean(data)
	sd = make([]float64, k)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j := range row {
			d := row[j] - mu[j]
			sd[j] += d * d
		}
	}
	for j := range sd {
		if n > 0 {
			sd[j] = math.Sqrt(sd[j] / float64(n))
		}
	}
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j := range row {
			row[j] -= mu[j]
			if sd[j] > 0 {
				row[j] /= sd[j]
			}
		}
	}
	return mu, sd
}

// CheckDims panics unless m has the wanted shape; a development aid for the
// experiment code.
func CheckDims(m *linalg.Dense, rows, cols int) {
	r, c := m.Dims()
	if r != rows || c != cols {
		panic(fmt.Sprintf("stats: got %dx%d matrix, want %dx%d", r, c, rows, cols))
	}
}

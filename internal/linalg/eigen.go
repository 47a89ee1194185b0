package linalg

import (
	"fmt"
	"math"

	"fdx/internal/fdxerr"
)

// symEigen returns the eigenvalues (unsorted) of the symmetric matrix a,
// computed with the cyclic Jacobi method. The rotations are applied to a
// copy of a only; eigenvectors are not accumulated, since the one caller
// (MinEigenvalue, under NearestSPD) reads the smallest eigenvalue alone.
func symEigen(a *Dense) (vals []float64, err error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("linalg: eigenvalues of non-square %dx%d matrix: %w", a.rows, a.cols, fdxerr.ErrBadInput)
	}
	m := a.Clone()
	m.Symmetrize()

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(m, p, q, c, s)
			}
		}
	}
	vals = make([]float64, n)
	for i := range vals {
		vals[i] = m.At(i, i)
	}
	return vals, nil
}

// rotate applies the Jacobi rotation J(p,q,θ) to m (two-sided).
//
//fdx:lint-ignore dimcheck private hot-loop helper; the Jacobi driver allocates m as n-by-n before the sweep, and a per-rotation guard would dominate the O(n) body
func rotate(m *Dense, p, q int, c, s float64) {
	n := m.rows
	for k := 0; k < n; k++ {
		mkp, mkq := m.At(k, p), m.At(k, q)
		m.Set(k, p, c*mkp-s*mkq)
		m.Set(k, q, s*mkp+c*mkq)
	}
	for k := 0; k < n; k++ {
		mpk, mqk := m.At(p, k), m.At(q, k)
		m.Set(p, k, c*mpk-s*mqk)
		m.Set(q, k, s*mpk+c*mqk)
	}
}

// MinEigenvalue returns the smallest eigenvalue of symmetric a.
func MinEigenvalue(a *Dense) (float64, error) {
	vals, err := symEigen(a)
	if err != nil {
		return 0, err
	}
	min := math.Inf(1)
	for _, v := range vals {
		if v < min {
			min = v
		}
	}
	return min, nil
}

// NearestSPD shifts the diagonal of symmetric a just enough that its
// smallest eigenvalue is at least floor, returning a new matrix. It is used
// to regularize empirical covariance estimates before factorization.
func NearestSPD(a *Dense, floor float64) (*Dense, error) {
	min, err := MinEigenvalue(a)
	if err != nil {
		return nil, err
	}
	out := a.Clone()
	out.Symmetrize()
	if min < floor {
		shift := floor - min
		for i := 0; i < out.rows; i++ {
			out.Add(i, i, shift)
		}
	}
	return out, nil
}

package linalg

import (
	"fmt"

	"fdx/internal/faults"
	"fdx/internal/fdxerr"
)

// ErrNotPositiveDefinite is returned when UDU encounters a non-positive
// pivot. It wraps fdxerr.ErrNonPositivePivot, so callers can
// match either name with errors.Is.
var ErrNotPositiveDefinite = fmt.Errorf("linalg: matrix is not positive definite: %w", fdxerr.ErrNonPositivePivot)

// UDU computes the unit upper-triangular U and diagonal d with a = U·diag(d)·Uᵀ.
//
// This is the factorization FDX applies to the estimated inverse covariance
// Θ (paper §4.2, Alg. 1): with Θ = U·D·Uᵀ and U unit upper triangular, the
// autoregression matrix is B = I − U, whose non-zero super-diagonal entries
// in column j give the determinant set of the FD for attribute j.
//
// It mirrors the lower-triangular L·D·Lᵀ factorization: elimination
// proceeds from the last row and column toward the first.
func UDU(a *Dense) (u *Dense, d []float64, err error) {
	n := a.rows
	if a.cols != n {
		return nil, nil, fmt.Errorf("linalg: UDU of non-square %dx%d matrix: %w", a.rows, a.cols, fdxerr.ErrBadInput)
	}
	u = Identity(n)
	d = make([]float64, n)
	// Fault injection: report a non-positive pivot for this factorization
	// (one Fire per UDU call, at the first pivot processed).
	if n > 0 && faults.Fire(faults.NonPositivePivot) {
		return nil, nil, ErrNotPositiveDefinite
	}
	// scaled[k] caches u[j][k]*d[k] for the current column j, turning the
	// weighted reductions below into plain fused dot products.
	scaled := make([]float64, n)
	for j := n - 1; j >= 0; j-- {
		uj := u.Row(j)[j+1:]
		sc := scaled[j+1:]
		for k, v := range uj {
			sc[k] = v * d[j+1+k]
		}
		dj := a.At(j, j) - Dot(uj, sc)
		if dj <= 0 {
			return nil, nil, ErrNotPositiveDefinite
		}
		d[j] = dj
		for i := 0; i < j; i++ {
			s := a.At(i, j) - Dot(u.Row(i)[j+1:], sc)
			u.Set(i, j, s/dj)
		}
	}
	return u, d, nil
}

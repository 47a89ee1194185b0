package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reconstructUDU returns U·diag(d)·Uᵀ, the inverse operation of UDU.
func reconstructUDU(u *Dense, d []float64) *Dense {
	n := u.rows
	ud := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ud.Set(i, j, u.At(i, j)*d[j])
		}
	}
	return Mul(ud, u.Transpose())
}

func TestUDUReconstructsAndUnitUpperTriangular(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		u, d, err := UDU(a)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if u.At(i, i) != 1 || d[i] <= 0 {
				return false
			}
			for j := 0; j < i; j++ {
				if u.At(i, j) != 0 { // zero below diagonal
					return false
				}
			}
		}
		return MaxAbsDiff(reconstructUDU(u, d), a) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUDUHandComputed(t *testing.T) {
	// a = U D Uᵀ with U = [[1, .5],[0,1]], D = diag(2, 4):
	// a = [[2 + .25*4, .5*4], [.5*4, 4]] = [[3, 2],[2, 4]]
	a := NewDenseData(2, 2, []float64{3, 2, 2, 4})
	u, d, err := UDU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(u.At(0, 1), 0.5, 1e-12) {
		t.Errorf("U[0,1] = %v, want 0.5", u.At(0, 1))
	}
	if !almostEq(d[0], 2, 1e-12) || !almostEq(d[1], 4, 1e-12) {
		t.Errorf("d = %v, want [2 4]", d)
	}
}

func TestUDUOnDiagonalMatrix(t *testing.T) {
	a := NewDenseData(3, 3, []float64{2, 0, 0, 0, 5, 0, 0, 0, 7})
	u, d, err := UDU(a)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(u, Identity(3)) != 0 {
		t.Error("UDU of diagonal matrix should give U = I")
	}
	if d[0] != 2 || d[1] != 5 || d[2] != 7 {
		t.Errorf("d = %v", d)
	}
}

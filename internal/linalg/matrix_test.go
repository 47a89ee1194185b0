package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// randomSPD returns a random symmetric positive definite n×n matrix.
func randomSPD(rng *rand.Rand, n int) *Dense {
	a := randomDense(rng, n, n)
	spd := Mul(a, a.Transpose())
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n)) // ensure well-conditioned
	}
	return spd
}

func TestNewDensePanicsOnBadData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("Identity(3)[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestMulAgainstHandComputed(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if MaxAbsDiff(c, want) > 1e-12 {
		t.Errorf("Mul result:\n%v\nwant:\n%v", c, want)
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dimension mismatch")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomDense(rng, 4, 7)
	if MaxAbsDiff(m, m.Transpose().Transpose()) != 0 {
		t.Error("transpose twice is not the identity")
	}
}

func TestTransposeProperty(t *testing.T) {
	// (AB)ᵀ = BᵀAᵀ for random matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		k := 2 + rng.Intn(5)
		m := 2 + rng.Intn(5)
		a, b := randomDense(rng, n, k), randomDense(rng, k, m)
		left := Mul(a, b).Transpose()
		right := Mul(b.Transpose(), a.Transpose())
		return MaxAbsDiff(left, right) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 4, 2, 1})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Errorf("Symmetrize gave %v", m)
	}
	if !m.IsSymmetric(0) {
		t.Error("IsSymmetric false after Symmetrize")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewDenseData(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestRowIsView(t *testing.T) {
	a := NewDense(2, 2)
	a.Row(1)[0] = 5
	if a.At(1, 0) != 5 {
		t.Error("Row should be a shared view")
	}
}

func TestScale(t *testing.T) {
	a := NewDenseData(1, 3, []float64{1, -2, 3})
	a.Scale(-2)
	if a.At(0, 0) != -2 || a.At(0, 1) != 4 || a.At(0, 2) != -6 {
		t.Errorf("Scale = %v", a)
	}
}

func TestStringRendering(t *testing.T) {
	a := NewDenseData(1, 1, []float64{1.5})
	if got := a.String(); got == "" {
		t.Error("String returned empty output")
	}
}

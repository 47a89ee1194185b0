package glasso

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fdx/internal/linalg"
)

func randomSPD(rng *rand.Rand, n int) *linalg.Dense {
	a := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	spd := linalg.Mul(a, a.Transpose())
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n))
	}
	return spd
}

// cholesky returns the lower-triangular L with a = L·Lᵀ for symmetric
// positive definite a, or ok = false at a non-positive pivot.
func cholesky(a *linalg.Dense) (l *linalg.Dense, ok bool) {
	n := a.Rows()
	l = linalg.NewDense(n, n)
	for j := 0; j < n; j++ {
		lj := l.Row(j)[:j]
		d := a.At(j, j) - linalg.Dot(lj, lj)
		if d <= 0 {
			return nil, false
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			l.Set(i, j, (a.At(i, j)-linalg.Dot(l.Row(i)[:j], lj))/ljj)
		}
	}
	return l, true
}

// inverseSPD returns a⁻¹ for symmetric positive definite a, solving
// L·Lᵀ·x = e_j by forward and back substitution for each column j.
func inverseSPD(a *linalg.Dense) (*linalg.Dense, bool) {
	l, ok := cholesky(a)
	if !ok {
		return nil, false
	}
	n := a.Rows()
	inv := linalg.NewDense(n, n)
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ { // L·y = e_j
			e := 0.0
			if i == j {
				e = 1
			}
			y[i] = (e - linalg.Dot(l.Row(i)[:i], y[:i])) / l.At(i, i)
		}
		for i := n - 1; i >= 0; i-- { // Lᵀ·x = y, x stored in column j
			s := y[i]
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * inv.At(k, j)
			}
			inv.Set(i, j, s/l.At(i, i))
		}
	}
	inv.Symmetrize()
	return inv, true
}

// mulVec returns a·x.
func mulVec(a *linalg.Dense, x []float64) []float64 {
	y := make([]float64, a.Rows())
	for i := range y {
		y[i] = linalg.Dot(a.Row(i), x)
	}
	return y
}

func TestSolveRejectsBadInput(t *testing.T) {
	if _, err := Solve(linalg.NewDense(2, 3), Options{}); err == nil {
		t.Error("accepted non-square input")
	}
	asym := linalg.NewDenseData(2, 2, []float64{1, 0.5, 0, 1})
	if _, err := Solve(asym, Options{}); err == nil {
		t.Error("accepted asymmetric input")
	}
}

func TestSolveTrivialSizes(t *testing.T) {
	r, err := Solve(linalg.NewDense(0, 0), Options{})
	if err != nil || r.Precision.Rows() != 0 {
		t.Fatalf("0x0 case: %v", err)
	}
	one := linalg.NewDenseData(1, 1, []float64{4})
	r, err = Solve(one, Options{Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Covariance.At(0, 0) != 5 || math.Abs(r.Precision.At(0, 0)-0.2) > 1e-12 {
		t.Errorf("1x1 case: W=%v Θ=%v", r.Covariance.At(0, 0), r.Precision.At(0, 0))
	}
}

func TestZeroLambdaRecoversInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		s := randomSPD(rng, n)
		res, err := Solve(s, Options{Lambda: 0, MaxIter: 400, Tol: 1e-10})
		if err != nil {
			return false
		}
		inv, ok := inverseSPD(s)
		if !ok {
			return false
		}
		return linalg.MaxAbsDiff(res.Precision, inv) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPrecisionSymmetricPositiveDiagonal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		s := randomSPD(rng, n)
		res, err := Solve(s, Options{Lambda: 0.1})
		if err != nil {
			return false
		}
		if !res.Precision.IsSymmetric(1e-8) {
			return false
		}
		for i := 0; i < n; i++ {
			if res.Precision.At(i, i) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLargeLambdaGivesDiagonalPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomSPD(rng, 5)
	res, err := Solve(s, Options{Lambda: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j && res.Precision.At(i, j) != 0 {
				t.Fatalf("Θ[%d,%d] = %v, want 0 at huge λ", i, j, res.Precision.At(i, j))
			}
		}
	}
}

func TestRecoversBlockStructure(t *testing.T) {
	// True precision: two independent blocks {0,1} and {2,3}. The glasso
	// estimate at moderate λ should keep cross-block entries at zero and
	// within-block entries non-zero.
	theta := linalg.NewDenseData(4, 4, []float64{
		2, 0.9, 0, 0,
		0.9, 2, 0, 0,
		0, 0, 2, -0.9,
		0, 0, -0.9, 2,
	})
	sigma, ok := inverseSPD(theta)
	if !ok {
		t.Fatal("Θ is not positive definite")
	}
	// Sample from N(0, Σ) and estimate the covariance.
	l, ok := cholesky(sigma)
	if !ok {
		t.Fatal("Σ is not positive definite")
	}
	rng := rand.New(rand.NewSource(11))
	n := 4000
	data := linalg.NewDense(n, 4)
	z := make([]float64, 4)
	for i := 0; i < n; i++ {
		for j := range z {
			z[j] = rng.NormFloat64()
		}
		x := mulVec(l, z)
		copy(data.Row(i), x)
	}
	// Empirical covariance (normalizing by n).
	s := linalg.NewDense(4, 4)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				s.Add(a, b, row[a]*row[b])
			}
		}
	}
	s.Scale(1 / float64(n))
	s.Symmetrize()

	res, err := Solve(s, Options{Lambda: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Precision
	if p.At(0, 1) == 0 || p.At(2, 3) == 0 {
		t.Errorf("within-block entries zeroed out: %v %v", p.At(0, 1), p.At(2, 3))
	}
	for _, ij := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		if v := math.Abs(p.At(ij[0], ij[1])); v > 0.05 {
			t.Errorf("cross-block Θ[%d,%d] = %v, want ≈0", ij[0], ij[1], v)
		}
	}
}

func TestCovariancePrecisionConsistency(t *testing.T) {
	// W·Θ ≈ I at convergence (they are mutual inverses for glasso).
	rng := rand.New(rand.NewSource(13))
	s := randomSPD(rng, 6)
	res, err := Solve(s, Options{Lambda: 0.05, MaxIter: 500, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	prod := linalg.Mul(res.Covariance, res.Precision)
	if d := linalg.MaxAbsDiff(prod, linalg.Identity(6)); d > 1e-2 {
		t.Errorf("W·Θ deviates from I by %v", d)
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ x, l, want float64 }{
		{3, 1, 2}, {-3, 1, -2}, {0.5, 1, 0}, {-0.5, 1, 0}, {1, 1, 0},
	}
	for _, c := range cases {
		if got := softThreshold(c.x, c.l); got != c.want {
			t.Errorf("softThreshold(%v, %v) = %v, want %v", c.x, c.l, got, c.want)
		}
	}
}

func TestLassoCDSolvesQuadratic(t *testing.T) {
	// With λ=0 lasso CD solves Qβ = b.
	rng := rand.New(rand.NewSource(17))
	q := randomSPD(rng, 5)
	want := make([]float64, 5)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := mulVec(q, want)
	beta := make([]float64, 5)
	lassoCD(q, b, 0, beta, 5000, 1e-12, make([]float64, 5))
	for i := range want {
		if math.Abs(beta[i]-want[i]) > 1e-6 {
			t.Fatalf("beta[%d] = %v, want %v", i, beta[i], want[i])
		}
	}
}

func TestLassoCDShrinksToZero(t *testing.T) {
	q := linalg.Identity(3)
	b := []float64{0.5, -0.5, 2}
	beta := make([]float64, 3)
	lassoCD(q, b, 1, beta, 100, 1e-12, make([]float64, 3))
	if beta[0] != 0 || beta[1] != 0 {
		t.Errorf("small coefficients not zeroed: %v", beta)
	}
	if math.Abs(beta[2]-1) > 1e-9 {
		t.Errorf("beta[2] = %v, want 1", beta[2])
	}
}

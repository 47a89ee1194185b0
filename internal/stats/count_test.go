package stats

import (
	"math"
	"math/rand"
	"testing"

	"fdx/internal/linalg"
)

// indicatorSamples builds a random n×k 0/1 sample block — the shape of the
// pair-transform output — with column densities varying from sparse to
// dense, so near-constant columns exercise the diagonal clamp.
func indicatorSamples(rng *rand.Rand, n, k int) *linalg.Dense {
	d := linalg.NewDense(n, k)
	p := make([]float64, k)
	for j := range p {
		p[j] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		row := d.Row(i)
		for j := range row {
			if rng.Float64() < p[j] {
				row[j] = 1
			}
		}
	}
	return d
}

// countTriangles returns the agreement-count triangles of consecutive
// blocks of rows rows each, back to back.
func countTriangles(d *linalg.Dense, rows int) []float64 {
	n, k := d.Dims()
	var out []float64
	for lo := 0; lo < n; lo += rows {
		tri := make([]float64, 0, k*(k+1)/2)
		for a := 0; a < k; a++ {
			for b := a; b < k; b++ {
				c := 0.0
				for i := lo; i < lo+rows; i++ {
					c += d.At(i, a) * d.At(i, b)
				}
				tri = append(tri, c)
			}
		}
		out = append(out, tri...)
	}
	return out
}

func assertDenseBitIdentical(t *testing.T, name string, want, got *linalg.Dense) {
	t.Helper()
	wr, wc := want.Dims()
	gr, gc := got.Dims()
	if wr != gr || wc != gc {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, wr, wc, gr, gc)
	}
	for i, v := range want.Data() {
		if math.Float64bits(v) != math.Float64bits(got.Data()[i]) {
			t.Fatalf("%s: element %d differs bit-for-bit: %v vs %v", name, i, v, got.Data()[i])
		}
	}
}

// TestPooledCountCovarianceBitIdentical pins the count path's contract:
// on 0/1 samples the covariance evaluated from agreement counts is
// bit-for-bit Covariance of the samples, whether the counts arrive as one
// triangle or split into strata.
func TestPooledCountCovarianceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][2]int{{1, 1}, {7, 3}, {64, 9}, {200, 17}} {
		d := indicatorSamples(rng, dims[0], dims[1])
		want := Covariance(d)
		assertDenseBitIdentical(t, "covariance", want, PooledCountCovariance(dims[0], countTriangles(d, dims[0]), dims[1]))
		if dims[0]%2 == 0 {
			assertDenseBitIdentical(t, "pooled halves", want, PooledCountCovariance(dims[0]/2, countTriangles(d, dims[0]/2), dims[1]))
		}
	}
}

func TestStratifiedCountCovarianceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	d := indicatorSamples(rng, 120, 11)
	for _, strata := range []int{1, 2, 4, 12} {
		want := StratifiedCovariance(d, strata)
		got := StratifiedCountCovariance(120/strata, countTriangles(d, 120/strata), 11)
		assertDenseBitIdentical(t, "stratified covariance", want, got)
	}
}

func TestCountCovarianceEmptyInput(t *testing.T) {
	for name, cov := range map[string]*linalg.Dense{
		"pooled":     PooledCountCovariance(0, make([]float64, 2*10), 4),
		"stratified": StratifiedCountCovariance(0, make([]float64, 2*10), 4),
		"no strata":  StratifiedCountCovariance(5, nil, 4),
	} {
		if r, c := cov.Dims(); r != 4 || c != 4 {
			t.Fatalf("%s: dims %dx%d", name, r, c)
		}
		for _, v := range cov.Data() {
			if v != 0 {
				t.Fatalf("%s: empty input produced nonzero covariance", name)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a partial count triangle did not panic")
		}
	}()
	StratifiedCountCovariance(5, make([]float64, 11), 4)
}

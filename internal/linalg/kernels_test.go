package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestAxpyDotMatchScalar checks the fused primitives against plain scalar
// loops at lengths hitting each unroll remainder (16/4/1 lanes).
func TestAxpyDotMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 100, 1003} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		wantDot := 0.0
		for i := range x {
			wantDot += x[i] * y[i]
		}
		tol := 1e-12 * float64(n+1)
		if got := Dot(x, y); math.Abs(got-wantDot) > tol {
			t.Errorf("Dot n=%d: got %g want %g", n, got, wantDot)
		}
		alpha := 1.7
		wantY := make([]float64, n)
		for i := range y {
			wantY[i] = y[i] + alpha*x[i]
		}
		Axpy(alpha, x, y)
		for i := range y {
			if math.Abs(y[i]-wantY[i]) > 1e-12 {
				t.Fatalf("Axpy n=%d index %d: got %g want %g", n, i, y[i], wantY[i])
			}
		}
	}
}

// TestAxpyDotLengthMismatchPanics checks the guard rails.
func TestAxpyDotLengthMismatchPanics(t *testing.T) {
	assertPanics(t, "Axpy", func() { Axpy(1, make([]float64, 3), make([]float64, 4)) })
	assertPanics(t, "Dot", func() { Dot(make([]float64, 3), make([]float64, 4)) })
}

// TestAxpyDotZeroAlloc is the runtime half of the zero-allocation contract
// Axpy and Dot advertise in their doc comments.
func TestAxpyDotZeroAlloc(t *testing.T) {
	x := make([]float64, 1003)
	y := make([]float64, 1003)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(len(y) - i)
	}
	sink := 0.0
	allocs := testing.AllocsPerRun(20, func() {
		Axpy(0.5, x, y)
		sink += Dot(x, y)
	})
	if allocs != 0 {
		t.Errorf("Axpy+Dot: %v allocs/op, want 0", allocs)
	}
	_ = sink
}

// TestMulDeterministicAcrossRuns checks bit-for-bit repeatability of Mul.
func TestMulDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("large multiply")
	}
	rng := rand.New(rand.NewSource(10))
	a := randomDense(rng, 160, 160)
	b := randomDense(rng, 160, 160)
	first := Mul(a, b)
	for run := 0; run < 3; run++ {
		again := Mul(a, b)
		for i := range first.data {
			if first.data[i] != again.data[i] {
				t.Fatalf("run %d: element %d differs: %v vs %v", run, i, first.data[i], again.data[i])
			}
		}
	}
}

func BenchmarkDot1024(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += Dot(x, y)
	}
	_ = s
}

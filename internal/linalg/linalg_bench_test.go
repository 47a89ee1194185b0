package linalg

import (
	"math/rand"
	"testing"
)

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomDense(rng, 64, 64)
	y := randomDense(rng, 64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkUDU64(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := UDU(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigen32(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randomSPD(rng, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := symEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

package glasso

import (
	"math/rand"
	"testing"
)

func benchSolve(b *testing.B, k int, lambda float64) {
	rng := rand.New(rand.NewSource(1))
	s := randomSPD(rng, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(s, Options{Lambda: lambda}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve16(b *testing.B)  { benchSolve(b, 16, 0.05) }
func BenchmarkSolve48(b *testing.B)  { benchSolve(b, 48, 0.05) }
func BenchmarkSolve128(b *testing.B) { benchSolve(b, 128, 0.05) }

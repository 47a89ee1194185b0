package core

import (
	"context"
	"math/rand"
	"testing"

	"fdx/internal/dataset"
)

func BenchmarkTransform1kx12(b *testing.B)  { benchTransform(b, 1000, 12) }
func BenchmarkTransform10kx12(b *testing.B) { benchTransform(b, 10000, 12) }
func BenchmarkTransform1kx48(b *testing.B)  { benchTransform(b, 1000, 48) }

// The pair-moments benchmarks time the fused kernel on the shapes of the
// dense Transform benchmarks above, plus a streaming batch (256 rows of a
// 37-attribute schema, as the alarm network's), counting into the packed
// per-stratum triangles the batch path uses.
func BenchmarkPairMoments1kx12(b *testing.B)  { benchPairMoments(b, 1000, 12) }
func BenchmarkPairMoments10kx12(b *testing.B) { benchPairMoments(b, 10000, 12) }
func BenchmarkPairMoments1kx48(b *testing.B)  { benchPairMoments(b, 1000, 48) }
func BenchmarkPairMoments256x37(b *testing.B) { benchPairMoments(b, 256, 37) }

func benchRelation(rows, cols int) *dataset.Relation {
	rng := rand.New(rand.NewSource(1))
	data := make([][]int, rows)
	for i := range data {
		data[i] = make([]int, cols)
		for j := range data[i] {
			data[i][j] = rng.Intn(16)
		}
	}
	names := make([]string, cols)
	for j := range names {
		names[j] = "a"
	}
	return relFromCodes(data, names...)
}

func benchTransform(b *testing.B, rows, cols int) {
	rel := benchRelation(rows, cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transform(rel, TransformOptions{Seed: 1})
	}
}

func benchPairMoments(b *testing.B, rows, cols int) {
	rel := benchRelation(rows, cols)
	counts := make([]float64, CountsLen(cols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pairCounts(context.Background(), rel, TransformOptions{Seed: 1}, counts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscover1kx12(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rel := makeFDRelation(rng, 1000, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(rel, Options{Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

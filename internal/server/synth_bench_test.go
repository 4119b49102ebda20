package server

import (
	"context"
	"testing"

	"repro"
	"repro/internal/synth"
)

// releasedVector materialises the consistent estimate of one seeded
// Fourier Q2 release at ε = 1, the vector /v1/synthetic rounds.
func releasedVector(b *testing.B, tab *repro.Table) []float64 {
	b.Helper()
	w := repro.AllKWayMarginals(tab.Schema, 2)
	r, err := repro.NewReleaser(tab.Schema, w)
	if err != nil {
		b.Fatal(err)
	}
	res, err := r.Release(context.Background(), tab, repro.ReleaseSpec{Epsilon: 1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	x, err := repro.ReleaseVectorCoefficients(tab.Schema, w, res)
	if err != nil {
		b.Fatal(err)
	}
	return x
}

// BenchmarkSynthetic times the stages of /v1/synthetic on NLTCS Q2 —
// materialise the release, round it to counts, sample rows, encode the
// body — and the rounding alone on Adult's 2^23-cell domain.
func BenchmarkSynthetic(b *testing.B) {
	nltcs := repro.SyntheticNLTCS(1, 21574)
	b.Run("nltcs-q2/materialize", func(b *testing.B) {
		w := repro.AllKWayMarginals(nltcs.Schema, 2)
		r, err := repro.NewReleaser(nltcs.Schema, w)
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Release(context.Background(), nltcs, repro.ReleaseSpec{Epsilon: 1, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := repro.ReleaseVectorCoefficients(nltcs.Schema, w, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	x := releasedVector(b, nltcs)
	b.Run("nltcs-q2/round", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			synth.RoundToCounts(x)
		}
	})
	counts := synth.RoundToCounts(x)
	b.Run("nltcs-q2/sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			synth.SampleCells(nltcs.Schema, counts, 3)
		}
	})
	cells, _ := synth.SampleCells(nltcs.Schema, counts, 3)
	b.Run("nltcs-q2/encode", func(b *testing.B) {
		body := syntheticBody{Strategy: "F", Count: len(cells), sample: cells, schema: nltcs.Schema}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := body.marshal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adult-2^23/round", func(b *testing.B) {
		x := releasedVector(b, repro.SyntheticAdult(2, 32561))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			synth.RoundToCounts(x)
		}
	})
}

package consistency

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/marginal"
)

// benchWorkload builds a consistency-heavy workload: all 10-way marginals
// of a d=14 domain — ~1M released cells across 1001 overlapping tables, the
// regime where the projection used to be the pipeline's serial bottleneck.
func benchWorkload(tb testing.TB, d, k int) (*marginal.Workload, []float64, []float64) {
	tb.Helper()
	w := marginal.AllKWay(d, k)
	rng := rand.New(rand.NewSource(7))
	noisy := make([]float64, w.TotalCells())
	for i := range noisy {
		noisy[i] = rng.NormFloat64() * 8
	}
	weight := make([]float64, len(w.Marginals))
	for i := range weight {
		weight[i] = 0.5 + rng.Float64()
	}
	return w, noisy, weight
}

// BenchmarkConsist compares the serial consistency projection against the
// parallel one on the d=14 workload — about 1M cells, far above par.Grain,
// so the per-marginal WHTs and the reconstruction split across workers
// while the per-coefficient weighted average stays one serial sweep. The
// CI pipeline records both with -benchmem as a build artifact, so the
// serial-vs-parallel gap is tracked per PR; BenchmarkStageGrain in
// internal/engine sweeps the sizes around the grain.
func BenchmarkConsist(b *testing.B) {
	w, noisy, weight := benchWorkload(b, 14, 10)
	counts := []int{1}
	if g := runtime.GOMAXPROCS(0); g > 1 {
		counts = append(counts, g)
	} else {
		counts = append(counts, 4) // single-core box: still exercise the pooled path
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := L2WeightedWorkers(w, noisy, weight, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAllocCeilingConsist holds BenchmarkConsist's projection to committed
// allocs/op ceilings at one and at four workers, whatever the CPU count.
// The pooled path allocates per worker, not per cell or per marginal.
func TestAllocCeilingConsist(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so allocation counts vary")
	}
	w, noisy, weight := benchWorkload(t, 14, 10)
	for _, c := range []struct {
		workers int
		ceiling float64
	}{{1, 63}, {4, 105}} {
		got := testing.AllocsPerRun(5, func() {
			if _, err := L2WeightedWorkers(w, noisy, weight, c.workers); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("workers=%d: %v allocs per projection, ceiling %v", c.workers, got, c.ceiling)
		}
	}
}

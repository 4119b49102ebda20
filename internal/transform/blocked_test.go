package transform

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/vector"
)

// TestWHTBlockedBitIdentical: the blocked transform equals the serial dense
// transform bit-for-bit at every (block, worker) combination.
func TestWHTBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, logN := range []int{0, 3, 8, 12} {
		n := 1 << uint(logN)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), x...)
		WHTWorkers(want, 1)
		for _, blockLen := range []int{n, n / 2, n / 8, 1 << 5, 1} {
			if blockLen < 1 || blockLen > n {
				continue
			}
			for _, workers := range []int{0, 1, 3, 8} {
				b := vector.NewBlockLen(n, blockLen)
				b.Scatter(x)
				WHTBlocked(b, workers)
				for i := 0; i < n; i++ {
					if math.Float64bits(b.At(i)) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d blockLen=%d workers=%d: cell %d = %v, want %v",
							n, blockLen, workers, i, b.At(i), want[i])
					}
				}
			}
		}
	}
}

func TestWHTBlockedRejectsBadShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two block length accepted")
		}
	}()
	WHTBlocked(vector.NewBlockLen(16, 3), 2)
}

// TestWHTGrainBitIdentity: the dense and the blocked transform equal the
// serial transform bit for bit at lengths around the grain — half of it,
// the grain, twice it (the first length two workers split) and sixteen
// times it — for workers ∈ {2, 3, 8} and block lengths that put the
// cross-block stages below, at and above the per-worker share.
func TestWHTGrainBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{par.Grain / 2, par.Grain, 2 * par.Grain, 16 * par.Grain} {
		x := randomVec(rng, n)
		want := append([]float64(nil), x...)
		WHTWorkers(want, 1)
		for _, workers := range []int{2, 3, 8} {
			got := append([]float64(nil), x...)
			WHTWorkers(got, workers)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dense n=%d workers=%d: cell %d = %v, want %v", n, workers, i, got[i], want[i])
				}
			}
			for _, blockLen := range []int{n / 64, n / 4, n / 2} {
				b := vector.NewBlockLen(n, blockLen)
				b.Scatter(x)
				WHTBlocked(b, workers)
				for i := range want {
					if math.Float64bits(b.At(i)) != math.Float64bits(want[i]) {
						t.Fatalf("blocked n=%d blockLen=%d workers=%d: cell %d = %v, want %v",
							n, blockLen, workers, i, b.At(i), want[i])
					}
				}
			}
		}
	}
}

// TestAllocCeilingWHT: the 2^20-cell butterfly kernels of
// BenchmarkWHTKernel1M allocate nothing, and below twice the grain the
// transform asked for eight workers runs the serial network and allocates
// exactly what one worker does — nothing.
func TestAllocCeilingWHT(t *testing.T) {
	for _, k := range whtKernel1M() {
		if a := testing.AllocsPerRun(2, k.run); a != 0 {
			t.Errorf("kernel %s: %v allocs, ceiling 0", k.name, a)
		}
	}
	x := make([]float64, par.Grain)
	b := vector.NewBlockLen(par.Grain, par.Grain/8)
	for _, workers := range []int{1, 8} {
		if a := testing.AllocsPerRun(10, func() { WHTWorkers(x, workers) }); a != 0 {
			t.Errorf("dense n=%d workers=%d: %v allocs, ceiling 0", len(x), workers, a)
		}
	}
	serial := testing.AllocsPerRun(10, func() { WHTBlocked(b, 1) })
	eight := testing.AllocsPerRun(10, func() { WHTBlocked(b, 8) })
	if serial != eight {
		t.Errorf("blocked n=%d: workers=8 allocates %v, workers=1 %v", b.Len(), eight, serial)
	}
}

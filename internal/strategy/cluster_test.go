package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bits"
	"repro/internal/marginal"
)

// randomClusterWorkload builds a workload of ell distinct non-empty masks
// over d attributes, the adversarial input for the oracle property test:
// random overlap structure, duplicated attribute sets forbidden only as
// exact masks (the workload type requires distinctness).
func randomClusterWorkload(rng *rand.Rand, d, ell int) *marginal.Workload {
	if ell >= 1<<uint(d) {
		panic("randomClusterWorkload: ell too large for d")
	}
	seen := make(map[bits.Mask]bool, ell)
	masks := make([]bits.Mask, 0, ell)
	for len(masks) < ell {
		// Bias toward low orders (the realistic regime — and small unions
		// keep term magnitudes varied so ties actually occur).
		order := 1 + rng.Intn(3)
		var m bits.Mask
		for i := 0; i < order; i++ {
			m |= 1 << uint(rng.Intn(d))
		}
		if m == 0 || seen[m] {
			continue
		}
		seen[m] = true
		masks = append(masks, m)
	}
	return marginal.MustWorkload(d, masks)
}

// TestGreedyClusterMatchesNaiveOracle pins the incremental and parallel
// searches bit-identical to the retained naive oracle across randomized
// workloads, worker counts and merge caps — the tentpole's correctness
// contract. Run under -race this also exercises the parallel sweep for
// data races.
func TestGreedyClusterMatchesNaiveOracle(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, ell := range []int{8, 32, 96} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(ell)))
			d := 10 + rng.Intn(6)
			w := randomClusterWorkload(rng, d, ell)
			for _, maxMerges := range []int{0, 1, ell / 2} {
				want := greedyClusterNaive(w, maxMerges)
				for _, workers := range workerCounts {
					got := greedyCluster(w, maxMerges, workers)
					if !reflect.DeepEqual(got.materials, want.materials) {
						t.Fatalf("ell=%d seed=%d cap=%d workers=%d: materials diverge\n got %v\nwant %v",
							ell, seed, maxMerges, workers, got.materials, want.materials)
					}
					if !reflect.DeepEqual(got.assign, want.assign) {
						t.Fatalf("ell=%d seed=%d cap=%d workers=%d: assignments diverge", ell, seed, maxMerges, workers)
					}
					if !reflect.DeepEqual(got.members, want.members) {
						t.Fatalf("ell=%d seed=%d cap=%d workers=%d: member counts diverge", ell, seed, maxMerges, workers)
					}
				}
			}
		}
	}
}

// TestGreedyClusterGrainBitIdentity: around the sweep's fork point (ℓ² at
// twice par.Grain, so ℓ = 128 is the first size two workers split) the
// parallel search equals the serial incremental one, which the oracle test
// above pins to the naive search.
func TestGreedyClusterGrainBitIdentity(t *testing.T) {
	for _, ell := range []int{127, 128, 129, 200} {
		rng := rand.New(rand.NewSource(int64(ell)))
		w := randomClusterWorkload(rng, 16, ell)
		want := greedyCluster(w, 0, 1)
		for _, workers := range []int{2, 3, 8} {
			got := greedyCluster(w, 0, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ell=%d workers=%d: clustering diverges from serial", ell, workers)
			}
		}
	}
}

// TestGreedyClusterTieBreak checks the documented contract directly: among
// equal-scoring candidate merges the lexicographically lowest (i, j) wins.
// Four disjoint singletons are fully symmetric — every pair scores the same
// — so the first merge must be (0, 1), at every worker count. (ℓ here is
// below the parallel grain, so the parallel reduction is exercised separately
// by forcing a sweep through clusterSweep stride slices.)
func TestGreedyClusterTieBreak(t *testing.T) {
	w := marginal.MustWorkload(4, []bits.Mask{0b0001, 0b0010, 0b0100, 0b1000})
	for _, workers := range []int{1, 4} {
		cl := greedyCluster(w, 1, workers)
		want := greedyClusterNaive(w, 1)
		if !reflect.DeepEqual(cl.materials, want.materials) || !reflect.DeepEqual(cl.assign, want.assign) {
			t.Fatalf("workers=%d: capped merge diverges from oracle: %v vs %v", workers, cl.materials, want.materials)
		}
		// The oracle itself must have merged the first pair: materials
		// {0b0011, 0b0100, 0b1000} with marginals 0 and 1 sharing cluster 0.
		if cl.assign[0] != cl.assign[1] || cl.materials[cl.assign[0]] != 0b0011 {
			t.Fatalf("workers=%d: tie not broken toward (0,1): assign=%v materials=%v", workers, cl.assign, cl.materials)
		}
	}

	// The strided reduction path: every worker returns its own best and the
	// reduction must still pick the globally lowest (i, j) among ties.
	a := mergeCand{obj: 1, i: 2, j: 3}
	b := mergeCand{obj: 1, i: 0, j: 5}
	c := mergeCand{obj: 1, i: 0, j: 4}
	empty := mergeCand{obj: math.Inf(1), i: -1, j: -1}
	if !b.beats(a) || !c.beats(b) || a.beats(c) {
		t.Fatal("beats must order equal objectives lexicographically by (i, j)")
	}
	if empty.beats(a) || !a.beats(empty) {
		t.Fatal("an empty candidate must always lose the reduction")
	}
}

// TestClusterTermNoOverflow is the regression test for the latent shift
// overflow: the objective term at k = 63 set bits. int64(1)<<63 is negative
// — the old formulation silently flipped the objective's sign for ≥63-bit
// masks — while math.Ldexp stays exact (a power of two scales the mantissa
// exactly) far past the int64 range.
func TestClusterTermNoOverflow(t *testing.T) {
	for _, k := range []int{0, 1, 30, 62, 63, 64, 100} {
		got := clusterTerm(3, k)
		want := 3 * math.Ldexp(1, k)
		if got != want || got <= 0 || math.IsInf(got, 0) {
			t.Fatalf("clusterTerm(3, %d) = %v, want %v (positive, finite)", k, got, want)
		}
	}
	// Document what the old arithmetic did at the boundary.
	shift := uint(63)
	if old := float64(int64(1) << shift); old >= 0 {
		t.Fatalf("expected int64(1)<<63 to be negative (the latent bug), got %v", old)
	}
	if clusterTerm(1, 63) != math.Ldexp(1, 63) {
		t.Fatal("clusterTerm must survive k=63")
	}
}

// BenchmarkGreedyCluster compares the retained naive oracle against the
// incremental serial and parallel searches — the CI artifact tracking the
// tentpole's speedup (≥10× at ℓ=128 is the acceptance bar; the asymptotic
// gap is Θ(ℓ)). The parallel arm forks only from ℓ = 128 (ℓ² at twice
// par.Grain); below it both arms run the serial sweep.
func BenchmarkGreedyCluster(b *testing.B) {
	for _, ell := range []int{16, 64, 128} {
		rng := rand.New(rand.NewSource(int64(ell)))
		w := randomClusterWorkload(rng, 16, ell)
		b.Run(fmt.Sprintf("naive/L%d", ell), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = greedyClusterNaive(w, 0)
			}
		})
		b.Run(fmt.Sprintf("incremental/L%d", ell), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = greedyCluster(w, 0, 1)
			}
		})
		b.Run(fmt.Sprintf("parallel/L%d", ell), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = greedyCluster(w, 0, 0)
			}
		})
	}
}

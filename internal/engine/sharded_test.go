package engine

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bits"
	"repro/internal/marginal"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// TestShardedBitIdentity is the acceptance matrix of the blocked pipeline:
// every strategy × every consistency mode × worker counts {1, 4,
// GOMAXPROCS} × input blockings must reproduce the serial release over a
// dense input bit for bit.
func TestShardedBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	w := marginal.AllKWay(8, 2)
	x := make([]float64, 1<<uint(w.D))
	for i := range x {
		x[i] = float64(rng.Intn(20))
	}
	workerCounts := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		workerCounts = append(workerCounts, g)
	}
	strategies := []strategy.Strategy{
		strategy.Fourier{}, strategy.Workload{}, strategy.Cluster{}, strategy.Identity{},
	}
	modes := []Consistency{NoConsistency, WeightedL2Consistency}
	for _, s := range strategies {
		for _, cons := range modes {
			n := 1 << uint(w.D)
			cfg := Config{
				Strategy: s, Budgeting: OptimalBudget, Consistency: cons,
				Privacy: pureParams(0.9), Seed: 77,
			}
			ref, err := run(New(Options{Workers: 1}), w, x, cfg)
			if err != nil {
				t.Fatalf("%s/%v serial: %v", s.Name(), cons, err)
			}
			for _, workers := range workerCounts {
				for _, xblocks := range []int{1, 4, 16} {
					xv := vector.New(n, xblocks)
					xv.Scatter(x)
					got, err := New(Options{Workers: workers}).RunVector(t.Context(), w, xv, cfg)
					if err != nil {
						t.Fatalf("%s/%v workers=%d xblocks=%d: %v", s.Name(), cons, workers, xblocks, err)
					}
					for i := range ref.Answers {
						if math.Float64bits(ref.Answers[i]) != math.Float64bits(got.Answers[i]) {
							t.Fatalf("%s/%v workers=%d xblocks=%d: answer %d = %v, want %v",
								s.Name(), cons, workers, xblocks, i, got.Answers[i], ref.Answers[i])
						}
					}
					for i := range ref.CellVariances {
						if math.Float64bits(ref.CellVariances[i]) != math.Float64bits(got.CellVariances[i]) {
							t.Fatalf("%s/%v workers=%d xblocks=%d: cell variance %d differs",
								s.Name(), cons, workers, xblocks, i)
						}
					}
				}
			}
		}
	}
}

// TestHugeDomainBoundedMemory is the d=20 smoke test: a release over a
// 2^20-cell blocked contingency vector must complete without ever
// gathering the domain into one dense slice — total heap allocation during
// the run stays far below the 8 MiB a single dense copy would cost, and
// the answers match the exact aggregation plus noise determinism contract.
func TestHugeDomainBoundedMemory(t *testing.T) {
	const d = 20
	n := 1 << uint(d)
	// A sparse-ish table: 20k occupied cells, the realistic shape for a
	// relation far smaller than its domain.
	rng := rand.New(rand.NewSource(61))
	xv := vector.NewBlockLen(n, vector.DefaultBlockLen)
	for i := 0; i < 20000; i++ {
		xv.Set(rng.Intn(n), float64(1+rng.Intn(5)))
	}
	w := marginal.MustWorkload(d, []bits.Mask{
		0x00003, 0x000c0, 0x30000, 0x00005, 0x00018, 0xc0000,
	})
	cfg := Config{
		Strategy: strategy.Workload{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: pureParams(0.5), Seed: 9,
	}
	eng := New(Options{Workers: 2})

	// Warm the plan path once so the measured run sees steady state.
	if _, err := eng.RunVector(t.Context(), w, xv, cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rel, err := eng.RunVector(t.Context(), w, xv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	// A single dense gather of x (or of an identity-style scratch) would
	// cost 8 MiB alone; the blocked pipeline's scratch is the tiny answer
	// vector plus per-block bookkeeping.
	if limit := uint64(2 << 20); allocated > limit {
		t.Fatalf("d=20 release allocated %d bytes, want < %d (dense gather is 8 MiB)", allocated, limit)
	}
	if len(rel.Answers) != w.TotalCells() {
		t.Fatalf("answers hold %d cells, want %d", len(rel.Answers), w.TotalCells())
	}
	// Determinism across worker counts holds at this scale too.
	again, err := New(Options{Workers: 1}).RunVector(t.Context(), w, xv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rel.Answers {
		if math.Float64bits(rel.Answers[i]) != math.Float64bits(again.Answers[i]) {
			t.Fatalf("d=20 release differs across worker counts at cell %d", i)
		}
	}
}

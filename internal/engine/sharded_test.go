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

// TestShardedBitIdentity is the acceptance matrix of the sharded pipeline:
// every strategy × every consistency mode × shard counts {1, 3, 8} ×
// worker counts {1, GOMAXPROCS} × input blockings must reproduce the
// monolithic serial release bit for bit.
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
			ref, err := run(New(Options{Workers: 1, Shards: 1}), w, x, cfg)
			if err != nil {
				t.Fatalf("%s/%v monolithic: %v", s.Name(), cons, err)
			}
			for _, shards := range []int{1, 3, 8} {
				for _, workers := range workerCounts {
					for _, xblocks := range []int{1, 4} {
						xv := vector.New(n, xblocks)
						xv.Scatter(x)
						got, err := New(Options{Workers: workers, Shards: shards}).
							RunVector(t.Context(), w, xv, cfg)
						if err != nil {
							t.Fatalf("%s/%v shards=%d workers=%d xblocks=%d: %v",
								s.Name(), cons, shards, workers, xblocks, err)
						}
						for i := range ref.Answers {
							if math.Float64bits(ref.Answers[i]) != math.Float64bits(got.Answers[i]) {
								t.Fatalf("%s/%v shards=%d workers=%d xblocks=%d: answer %d = %v, want %v",
									s.Name(), cons, shards, workers, xblocks, i, got.Answers[i], ref.Answers[i])
							}
						}
						for i := range ref.CellVariances {
							if math.Float64bits(ref.CellVariances[i]) != math.Float64bits(got.CellVariances[i]) {
								t.Fatalf("%s/%v shards=%d workers=%d xblocks=%d: cell variance %d differs",
									s.Name(), cons, shards, workers, xblocks, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestAutoShardResolution pins the Options.Shards resolution rules.
func TestAutoShardResolution(t *testing.T) {
	for _, tc := range []struct{ shards, rows, workers, want int }{
		{0, 100, 4, 1},               // small vectors stay monolithic
		{0, AutoShardRows, 4, 4},     // auto: one block per worker
		{0, AutoShardRows, 1, 1},     // serial auto stays monolithic-shaped
		{0, 1 << 24, 2, 16},          // memory bound: blocks capped at 2^20 rows
		{1, 1 << 20, 4, 1},           // explicit monolithic
		{3, 100, 4, 3},               // explicit shard count wins
		{1 << 30, 100, 4, 100},       // clamped to one row per shard
		{0, AutoShardRows - 1, 8, 1}, // just under the threshold
		{2, AutoShardRows - 1, 8, 2}, // explicit sharding below the threshold
	} {
		if got := (Options{Shards: tc.shards}).shardsFor(tc.rows, tc.workers); got != tc.want {
			t.Errorf("shardsFor(Shards=%d, rows=%d, workers=%d) = %d, want %d",
				tc.shards, tc.rows, tc.workers, got, tc.want)
		}
	}
}

// TestHugeDomainBoundedMemory is the d=20 smoke test: a sharded release
// over a 2^20-cell blocked contingency vector must complete without ever
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
	eng := New(Options{Workers: 2, Shards: 8})

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
	// cost 8 MiB alone; the sharded pipeline's scratch is the tiny answer
	// vector plus per-block bookkeeping.
	if limit := uint64(2 << 20); allocated > limit {
		t.Fatalf("d=20 release allocated %d bytes, want < %d (dense gather is 8 MiB)", allocated, limit)
	}
	if len(rel.Answers) != w.TotalCells() {
		t.Fatalf("answers hold %d cells, want %d", len(rel.Answers), w.TotalCells())
	}
	// Determinism across shard/worker settings holds at this scale too.
	again, err := New(Options{Workers: 1, Shards: 3}).RunVector(t.Context(), w, xv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rel.Answers {
		if math.Float64bits(rel.Answers[i]) != math.Float64bits(again.Answers[i]) {
			t.Fatalf("d=20 release differs across shard settings at cell %d", i)
		}
	}
}

package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/budget"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/par"
	"repro/internal/strategy"
	"repro/internal/vector"
)

func pureParams(eps float64) noise.Params {
	return noise.Params{Type: noise.PureDP, Epsilon: eps, Neighbor: noise.AddRemove}
}

// run releases a dense contingency vector through the engine's one entry,
// RunVector, under a Background context.
func run(e *Engine, w *marginal.Workload, x []float64, cfg Config) (*Release, error) {
	return e.RunVector(context.Background(), w, vector.FromDense(x), cfg)
}

func testX(rng *rand.Rand, d int) []float64 {
	x := make([]float64, 1<<uint(d))
	for i := range x {
		x[i] = float64(rng.Intn(20))
	}
	return x
}

// TestParallelDeterminism is the engine's core guarantee: the same seed and
// config produce a bit-identical release for every worker count, for every
// strategy, with and without consistency.
func TestParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 8
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	strategies := []strategy.Strategy{
		strategy.Fourier{}, strategy.Workload{}, strategy.Cluster{}, strategy.Identity{},
	}
	for _, s := range strategies {
		for _, cons := range []Consistency{NoConsistency, WeightedL2Consistency} {
			cfg := Config{
				Strategy: s, Budgeting: OptimalBudget, Consistency: cons,
				Privacy: pureParams(0.8), Seed: 42,
			}
			ref, err := run(New(Options{Workers: workerCounts[0]}), w, x, cfg)
			if err != nil {
				t.Fatalf("%s/%v workers=1: %v", s.Name(), cons, err)
			}
			for _, wk := range workerCounts[1:] {
				got, err := run(New(Options{Workers: wk}), w, x, cfg)
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", s.Name(), cons, wk, err)
				}
				for i := range ref.Answers {
					if math.Float64bits(ref.Answers[i]) != math.Float64bits(got.Answers[i]) {
						t.Fatalf("%s/%v: answer %d differs at %d workers: %v vs %v",
							s.Name(), cons, i, wk, ref.Answers[i], got.Answers[i])
					}
				}
				for i := range ref.CellVariances {
					if math.Float64bits(ref.CellVariances[i]) != math.Float64bits(got.CellVariances[i]) {
						t.Fatalf("%s/%v: cell variance %d differs at %d workers", s.Name(), cons, i, wk)
					}
				}
			}
		}
	}
}

// TestSubstreamSeedSeparation: releases under different master seeds share
// no per-cell noise, even though substream indices coincide.
func TestSubstreamSeedSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	cfg := Config{Strategy: strategy.Workload{}, Budgeting: OptimalBudget, Privacy: pureParams(0.5)}
	eng := New(Options{Workers: 4})
	cfg.Seed = 7
	a, err := run(eng, w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	b, err := run(eng, w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Answers {
		if a.Answers[i] == b.Answers[i] {
			t.Fatalf("cell %d identical under different seeds", i)
		}
	}
}

// TestPlanCacheHitsAndIdenticalOutput: the cache serves repeated configs
// from memory and never changes the release.
func TestPlanCacheHitsAndIdenticalOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	cache := NewPlanCache(0)
	cached := New(Options{Workers: 1, Cache: cache})
	plain := New(Options{Workers: 1})
	cfg := Config{
		Strategy: strategy.Cluster{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: pureParams(1), Seed: 5,
	}
	want, err := run(plain, w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		got, err := run(cached, w, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Answers {
			if math.Float64bits(want.Answers[i]) != math.Float64bits(got.Answers[i]) {
				t.Fatalf("trial %d: cached release differs at %d", trial, i)
			}
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 1 miss / 2 hits", st)
	}
	// Plans are privacy-independent, so a different ε reuses the plan — the
	// sweep-amortisation property (one cluster search for a whole ε grid).
	cfg.Privacy = pureParams(0.5)
	if _, err := run(cached, w, x, cfg); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("changed privacy must still hit the cached plan: %+v", st)
	}
	// A different workload is a different key.
	if _, err := run(cached, marginal.AllKWay(d, 1), x, cfg); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("changed workload must miss: %+v", st)
	}
}

// TestPlanCacheKeysDistinguishConfiguredStrategies: Cluster{MaxMerges}
// variants must not alias in the cache despite sharing Name() == "C".
func TestPlanCacheKeysDistinguishConfiguredStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 5
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	cache := NewPlanCache(0)
	eng := New(Options{Workers: 1, Cache: cache})
	cfg := Config{Budgeting: UniformBudget, Privacy: pureParams(1), Seed: 1}
	cfg.Strategy = strategy.Cluster{}
	full, err := run(eng, w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = strategy.Cluster{MaxMerges: 1}
	capped, err := run(eng, w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("capped cluster must not reuse the uncapped plan: %+v", st)
	}
	if len(full.GroupBudgets) == len(capped.GroupBudgets) {
		t.Fatalf("expected different groupings, both have %d groups", len(full.GroupBudgets))
	}
}

// TestPlanCacheEviction: the LRU bound holds.
func TestPlanCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 5
	x := testX(rng, d)
	cache := NewPlanCache(2)
	eng := New(Options{Workers: 1, Cache: cache})
	for _, k := range []int{1, 2, 3} {
		cfg := Config{Strategy: strategy.Workload{}, Privacy: pureParams(1), Seed: 1}
		if _, err := run(eng, marginal.AllKWay(d, k), x, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, capped at 2", st.Entries)
	}
}

// TestDefaultStagesMatchMonolith: stage-by-stage execution equals a direct
// serial composition of the underlying primitives (plan → budget → noise →
// recover), pinning the wrapper-over-stages structure.
func TestDefaultStagesMatchMonolith(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	p := pureParams(0.7)
	cfg := Config{Strategy: strategy.Fourier{}, Budgeting: OptimalBudget, Privacy: p, Seed: 11}

	rel, err := run(New(Options{Workers: 1}), w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := strategy.Fourier{}.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := budget.OptimalSpecs(plan.Specs, p)
	if err != nil {
		t.Fatal(err)
	}
	groupVar := budget.SpecVariances(alloc.Eta, p)
	z := plan.Answers(x)
	offsets := plan.GroupOffsets()
	groups := make([]NoiseGroup, len(plan.Specs))
	for g, spec := range plan.Specs {
		groups[g] = NoiseGroup{Start: offsets[g], Count: spec.Count, Eta: alloc.Eta[g]}
	}
	Perturb(z, groups, p, cfg.Seed, 1)
	answers, _, err := plan.RecoverDense(z, groupVar)
	if err != nil {
		t.Fatal(err)
	}
	for i := range answers {
		if math.Float64bits(answers[i]) != math.Float64bits(rel.Answers[i]) {
			t.Fatalf("hand-composed pipeline differs from engine at %d", i)
		}
	}
}

// TestPerturbBlockBoundaries: noise at any row is invariant to how many
// groups precede it in other groups' partitions — i.e. it depends only on
// (seed, group, row). Checked by perturbing the same group laid out at
// different offsets within z.
func TestPerturbBlockBoundaries(t *testing.T) {
	p := pureParams(1)
	const n = noiseBlock + 17 // spans a block boundary
	a := make([]float64, n)
	Perturb(a, []NoiseGroup{{Start: 0, Count: n, Eta: 0.5}}, p, 9, 1)
	b := make([]float64, n+8)
	// Same logical group, shifted start: substream indices are assigned per
	// group position, not per absolute offset, so draws must coincide.
	Perturb(b, []NoiseGroup{{Start: 8, Count: n, Eta: 0.5}}, p, 9, 3)
	for r := 0; r < n; r++ {
		if math.Float64bits(a[r]) != math.Float64bits(b[8+r]) {
			t.Fatalf("row %d noise depends on layout or workers", r)
		}
	}
	// A group's noise must not depend on the sizes of the groups before it
	// (the sharding property): resizing group 0 leaves group 1's draws
	// untouched, and a zero-Count placeholder preserves position identity.
	c := make([]float64, 2*n)
	Perturb(c, []NoiseGroup{{Start: 0, Count: n, Eta: 0.3}, {Start: n, Count: n, Eta: 0.5}}, p, 9, 1)
	d := make([]float64, 2*n)
	Perturb(d, []NoiseGroup{{Start: 0, Count: 5, Eta: 0.3}, {Start: n, Count: n, Eta: 0.5}}, p, 9, 1)
	e := make([]float64, 2*n)
	Perturb(e, []NoiseGroup{{Start: 0, Count: 0, Eta: 0.3}, {Start: n, Count: n, Eta: 0.5}}, p, 9, 2)
	for r := 0; r < n; r++ {
		if math.Float64bits(c[n+r]) != math.Float64bits(d[n+r]) ||
			math.Float64bits(c[n+r]) != math.Float64bits(e[n+r]) {
			t.Fatalf("group-1 noise at row %d depends on group 0's size", r)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := 4
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	eng := New(Options{})
	if _, err := run(eng, w, x, Config{Privacy: pureParams(1)}); err == nil {
		t.Error("nil strategy accepted")
	}
	if _, err := run(eng, w, x, Config{Strategy: strategy.Workload{}, Privacy: noise.Params{}}); err == nil {
		t.Error("zero epsilon accepted")
	}
	if _, err := run(eng, w, x[:3], Config{Strategy: strategy.Workload{}, Privacy: pureParams(1)}); err == nil {
		t.Error("short data vector accepted")
	}
}

// TestRunContextCancellation: a cancelled context aborts the pipeline with
// ctx.Err() and never yields a partial release, at any worker count.
func TestRunContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := 8
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	cfg := Config{Strategy: strategy.Fourier{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: pureParams(1), Seed: 5}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		rel, err := New(Options{Workers: workers}).RunVector(ctx, w, vector.FromDense(x), cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if rel != nil {
			t.Fatalf("workers=%d: cancelled run returned a release", workers)
		}
	}

	// A live cancellable context is bit-identical to a Background run.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	a, err := New(Options{Workers: 3}).RunVector(live, w, vector.FromDense(x), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(New(Options{Workers: 3}), w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Answers {
		if math.Float64bits(a.Answers[i]) != math.Float64bits(b.Answers[i]) {
			t.Fatalf("live-context run differs from Background run at cell %d", i)
		}
	}
}

// TestPerturbContextCancelled: PerturbContext surfaces cancellation from
// both the serial and the pooled path.
func TestPerturbContextCancelled(t *testing.T) {
	p := pureParams(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	z := make([]float64, 4*noiseBlock)
	groups := []NoiseGroup{{Start: 0, Count: len(z), Eta: 0.5}}
	if err := PerturbContext(ctx, z, groups, p, 3, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial: want context.Canceled, got %v", err)
	}
	if err := PerturbContext(ctx, z, groups, p, 3, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pooled: want context.Canceled, got %v", err)
	}
	if err := PerturbContext(context.Background(), z, groups, p, 3, 4); err != nil {
		t.Fatalf("background context: %v", err)
	}
}

// TestPerturbAllocsPinned pins the zero-alloc contract of the perturb stage:
// the serial path allocates only its block list and one reseedable substream
// Source, independent of the number of noise blocks. A regression here means
// per-block scratch crept back into the inner loop.
func TestPerturbAllocsPinned(t *testing.T) {
	const rows = 1 << 16 // 16 noise blocks
	z := make([]float64, rows)
	groups := []NoiseGroup{
		{Start: 0, Count: rows / 2, Eta: 0.5},
		{Start: rows / 2, Count: rows / 2, Eta: 0.25},
	}
	p := pureParams(1)
	allocs := testing.AllocsPerRun(10, func() {
		Perturb(z, groups, p, 42, 1)
	})
	// Blocks slice + Source (splitmix state, rand.Rand, Source) + the
	// FromDense wrapper; anything scaling with block count is a regression.
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Fatalf("serial Perturb allocates %v per run over %d blocks, want <= %d",
			allocs, rows/noiseBlock, maxAllocs)
	}
}

// TestBelowGrainAllocsMatchSerial: below the grain a stage asked for eight
// workers runs the serial code, so it allocates exactly what workers=1
// does — no goroutines, no per-worker Source, no per-item channel. One row
// (or cell) more than twice the grain would fork two workers.
func TestBelowGrainAllocsMatchSerial(t *testing.T) {
	const work = 2*par.Grain - 1
	allocs := func(run func(workers int)) (serial, eight float64) {
		run(1) // warm up lazily built state
		return testing.AllocsPerRun(20, func() { run(1) }), testing.AllocsPerRun(20, func() { run(8) })
	}
	p := pureParams(1)
	z := make([]float64, work)
	groups := mixedGroups(work)
	if s, e := allocs(func(workers int) { Perturb(z, groups, p, 42, workers) }); s != e {
		t.Errorf("perturb %d rows: workers=8 allocates %v, workers=1 %v", work, e, s)
	}

	rng := rand.New(rand.NewSource(4))
	w := marginal.AllKWay(10, 2)
	plan := chunkPlan(w)
	zr := randomBlocked(rng, work-w.TotalCells(), 2)
	if s, e := allocs(func(workers int) {
		if _, _, err := (Recoverer{}).Recover(context.Background(), w, plan, zr, nil, workers); err != nil {
			t.Fatal(err)
		}
	}); s != e {
		t.Errorf("recover work %d: workers=8 allocates %v, workers=1 %v", work, e, s)
	}

	x := randomBlocked(rng, 1000, 2)
	za := vector.New(work-x.Len(), 4)
	if s, e := allocs(func(workers int) {
		if err := answerBlocks(context.Background(), plan, x, za, workers); err != nil {
			t.Fatal(err)
		}
	}); s != e {
		t.Errorf("answer blocks work %d: workers=8 allocates %v, workers=1 %v", work, e, s)
	}
}

// BenchmarkPerturb measures the perturb stage over a 2^20-row strategy —
// run with -benchmem: allocs/op must stay flat in the block count. 2^20
// rows is far above par.Grain, so workers=4 forks four contiguous row
// ranges; BenchmarkStageGrain sweeps the sizes around the grain.
func BenchmarkPerturb(b *testing.B) {
	const rows = 1 << 20
	z := make([]float64, rows)
	groups := []NoiseGroup{{Start: 0, Count: rows, Eta: 0.5}}
	p := pureParams(1)
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "workers=4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Perturb(z, groups, p, 42, workers)
			}
		})
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestPlanCacheHitReusesPlannedWorkload: a plan-cache hit through a fresh
// workload equal to the planned one (the per-request lattice of /v1/cube)
// releases the same bits as the planned workload, and allocates no more:
// recover and consist run against the cached workload, whose Fourier
// support and column index already exist, so the fresh one derives
// nothing. GC is paused so the consistency scratch pool keeps its buffers
// between runs.
func TestPlanCacheHitReusesPlannedWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	d := 12
	x := vector.FromDense(testX(rng, d))
	planned := marginal.AllKWay(d, 2)
	eng := New(Options{Workers: 1, Cache: NewPlanCache(0)})
	cfg := Config{
		Strategy: strategy.Fourier{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: pureParams(1), Seed: 9,
	}
	release := func(w *marginal.Workload) *Release {
		rel, err := eng.RunVector(context.Background(), w, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	want := release(planned)
	got := release(marginal.AllKWay(d, 2))
	sameAnswers(t, "fresh workload", got, want)
	for c := range want.Coefficients {
		if math.Float64bits(got.Coefficients[c]) != math.Float64bits(want.Coefficients[c]) {
			t.Fatalf("coefficient %d = %v, want %v", c, got.Coefficients[c], want.Coefficients[c])
		}
	}
	if raceEnabled {
		return // sync.Pool drops items at random under the race detector
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 10
	fresh := make([]*marginal.Workload, runs+1) // AllocsPerRun adds a warm-up call
	for i := range fresh {
		fresh[i] = marginal.AllKWay(d, 2)
	}
	next := 0
	freshAllocs := testing.AllocsPerRun(runs, func() { release(fresh[next]); next++ })
	cachedAllocs := testing.AllocsPerRun(runs, func() { release(planned) })
	if freshAllocs > cachedAllocs {
		t.Fatalf("a fresh equal workload allocates %v per release, the planned one %v", freshAllocs, cachedAllocs)
	}
}

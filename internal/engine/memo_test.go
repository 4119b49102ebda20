package engine

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/marginal"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// frozenCopy returns x as a frozen 4-block vector, the shape of a dataset
// snapshot.
func frozenCopy(x []float64) *vector.Blocked {
	v := vector.New(len(x), 4)
	v.Scatter(x)
	vector.Freeze(v)
	return v
}

func sameAnswers(t *testing.T, what string, got, want *Release) {
	t.Helper()
	for i := range want.Answers {
		if math.Float64bits(got.Answers[i]) != math.Float64bits(want.Answers[i]) {
			t.Fatalf("%s: answer %d = %v, want %v", what, i, got.Answers[i], want.Answers[i])
		}
	}
	for i := range want.CellVariances {
		if math.Float64bits(got.CellVariances[i]) != math.Float64bits(want.CellVariances[i]) {
			t.Fatalf("%s: cell variance %d differs", what, i)
		}
	}
}

// TestAnswerMemoBitIdentical: a release served from the answer memo is bit
// for bit the memo-free release, for every strategy at workers {1, 2}.
// Each case first measures a different frozen vector
// under the same plan, so a memo that ignored the input identity would
// hand the second vector the first one's answers.
func TestAnswerMemoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d := 8
	w := marginal.AllKWay(d, 2)
	xOther, x := testX(rng, d), testX(rng, d)
	strategies := []strategy.Strategy{
		strategy.Fourier{}, strategy.Workload{}, strategy.Cluster{}, strategy.Identity{},
	}
	for _, s := range strategies {
		for _, workers := range []int{1, 2} {
			cache := NewPlanCache(0)
			memo := New(Options{Workers: workers, Cache: cache})
			fresh := New(Options{Workers: workers})
			cfg := Config{
				Strategy: s, Budgeting: OptimalBudget, Consistency: WeightedL2Consistency,
				Privacy: pureParams(0.7),
			}
			frozenX := frozenCopy(x)
			if _, err := memo.RunVector(t.Context(), w, frozenCopy(xOther), cfg); err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{5, 6} {
				cfg.Seed = seed
				cfg.Privacy = pureParams(0.5 + float64(seed))
				got, err := memo.RunVector(t.Context(), w, frozenX, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := run(fresh, w, x, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswers(t, s.Name(), got, want)
			}
			plan, err := Planner{Cache: cache}.Plan(t.Context(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			memoised := plan.Rows() < len(x)
			st := cache.Stats()
			switch {
			case memoised && (st.AnswerHits != 1 || st.AnswerMisses != 2):
				t.Errorf("%s workers=%d: answer hits/misses %d/%d, want 1/2",
					s.Name(), workers, st.AnswerHits, st.AnswerMisses)
			case !memoised && st.AnswerHits+st.AnswerMisses != 0:
				t.Errorf("%s workers=%d: unmemoisable plan consulted the memo (%d/%d)",
					s.Name(), workers, st.AnswerHits, st.AnswerMisses)
			}
		}
	}
}

// TestAnswerMemoNewSnapshotMisses: a new snapshot of grown data (the
// store's append: resident + delta, frozen) misses the memo and releases
// exactly what a fresh cache releases over the new counts.
func TestAnswerMemoNewSnapshotMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	d := 8
	w := marginal.AllKWay(d, 2)
	cache := NewPlanCache(0)
	eng := New(Options{Workers: 2, Cache: cache})
	cfg := Config{Strategy: strategy.Fourier{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: pureParams(1), Seed: 9}
	old := frozenCopy(testX(rng, d))
	if _, err := eng.RunVector(t.Context(), w, old, cfg); err != nil {
		t.Fatal(err)
	}
	grown, err := vector.Sum(old, vector.FromDense(testX(rng, d)))
	if err != nil {
		t.Fatal(err)
	}
	vector.Freeze(grown)
	got, err := eng.RunVector(t.Context(), w, grown, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(Options{Workers: 2, Cache: NewPlanCache(0)}).RunVector(t.Context(), w, grown, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "after append", got, want)
	if st := cache.Stats(); st.AnswerHits != 0 {
		t.Fatalf("new snapshot hit the memo of the old one (%d hits)", st.AnswerHits)
	}
}

// TestAnswerMemoIgnoresCallerVectors: an unfrozen (caller-owned) vector
// mutated in place between two releases yields the new cells' answers —
// it never reaches the memo.
func TestAnswerMemoIgnoresCallerVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	d := 8
	w := marginal.AllKWay(d, 2)
	cache := NewPlanCache(0)
	eng := New(Options{Workers: 2, Cache: cache})
	cfg := Config{Strategy: strategy.Workload{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: pureParams(1), Seed: 4}
	x := testX(rng, d)
	xv := vector.FromDense(x)
	if _, err := eng.RunVector(t.Context(), w, xv, cfg); err != nil {
		t.Fatal(err)
	}
	copy(x, testX(rng, d))
	got, err := eng.RunVector(t.Context(), w, xv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(New(Options{Workers: 2}), w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "mutated caller vector", got, want)
	if st := cache.Stats(); st.AnswerHits+st.AnswerMisses != 0 {
		t.Fatalf("caller-owned vector consulted the memo (%d/%d)", st.AnswerHits, st.AnswerMisses)
	}
}

// TestAnswerMemoConcurrent: concurrent releases over two frozen snapshots
// through one cache — lookups, stores and evictions racing — each match
// the memo-free release of their own snapshot.
func TestAnswerMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	d := 8
	w := marginal.AllKWay(d, 2)
	xs := [][]float64{testX(rng, d), testX(rng, d)}
	snaps := []*vector.Blocked{frozenCopy(xs[0]), frozenCopy(xs[1])}
	strategies := []strategy.Strategy{strategy.Fourier{}, strategy.Workload{}, strategy.Cluster{}}
	cfg := func(i int) Config {
		return Config{Strategy: strategies[i%len(strategies)], Budgeting: OptimalBudget,
			Consistency: WeightedL2Consistency, Privacy: pureParams(1), Seed: int64(i)}
	}
	const n = 24
	want := make([]*Release, n)
	for i := range want {
		var err error
		if want[i], err = run(New(Options{Workers: 1}), w, xs[i%2], cfg(i)); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewPlanCache(2) // fewer entries than plans: evictions race too
	var wg sync.WaitGroup
	got := make([]*Release, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, err := New(Options{Workers: 2, Cache: cache}).RunVector(t.Context(), w, snaps[i%2], cfg(i))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = rel
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != nil {
			sameAnswers(t, "concurrent release", got[i], want[i])
		}
	}
	memoSlots(t, cache)
}

// memoSlots counts the resident memos and checks the byte tally.
func memoSlots(t *testing.T, c *PlanCache) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	slots, bytes := 0, 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		if m := el.Value.(*cacheEntry).memo; m != nil {
			slots++
			bytes += 8 * len(m.answers)
		}
	}
	if bytes != c.memoBytes || bytes > c.memoMax {
		t.Fatalf("memo bytes %d (tally %d), bound %d", bytes, c.memoBytes, c.memoMax)
	}
	return slots
}

// TestAnswerMemoNeverPinsSnapshots: after a sequence of appends, each
// followed by releases under several plans, every superseded snapshot is
// collectable — the memo keys them weakly — and the cache holds at most one
// memo per plan within its byte bound.
func TestAnswerMemoNeverPinsSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	d := 10
	w := marginal.AllKWay(d, 2)
	cache := NewPlanCache(0)
	eng := New(Options{Workers: 2, Cache: cache})
	strategies := []strategy.Strategy{strategy.Fourier{}, strategy.Workload{}, strategy.Cluster{}}
	snap := frozenCopy(testX(rng, d))
	var superseded []weak.Pointer[vector.Blocked]
	for round := 0; round < 5; round++ {
		for _, s := range strategies {
			for seed := int64(0); seed < 2; seed++ {
				cfg := Config{Strategy: s, Budgeting: OptimalBudget,
					Consistency: WeightedL2Consistency, Privacy: pureParams(1), Seed: seed}
				if _, err := eng.RunVector(t.Context(), w, snap, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		superseded = append(superseded, weak.Make(snap))
		next, err := vector.Sum(snap, vector.FromDense(testX(rng, d)))
		if err != nil {
			t.Fatal(err)
		}
		vector.Freeze(next)
		snap = next
	}
	runtime.GC()
	for i, p := range superseded {
		if p.Value() != nil {
			t.Errorf("superseded snapshot %d still reachable", i)
		}
	}
	if n, entries := memoSlots(t, cache), cache.Stats().Entries; n > entries || n != len(strategies) {
		t.Fatalf("%d memos over %d plans, want one per plan", n, entries)
	}
	if st := cache.Stats(); st.AnswerHits != 5*uint64(len(strategies)) {
		t.Fatalf("answer hits %d, want one per plan per snapshot", st.AnswerHits)
	}
	runtime.KeepAlive(snap)
}

// TestAnswerMemoByteBound: memoising past the byte bound evicts the least
// recently used plans' memos, a memo larger than the bound is never kept,
// and an evicted plan keeps nothing. The bound is lowered to 1 KiB so the
// test allocates little.
func TestAnswerMemoByteBound(t *testing.T) {
	c := NewPlanCache(2)
	if c.memoMax != MaxAnswerMemoBytes {
		t.Fatalf("memo bound %d, want MaxAnswerMemoBytes", c.memoMax)
	}
	c.memoMax = 1 << 10
	x := vector.FromDense(make([]float64, 4))
	half := make([]float64, c.memoMax/8/2+1)
	a := c.put("a", nil, &strategy.Plan{})
	b := c.put("b", nil, &strategy.Plan{})
	c.memoize(a, x, half)
	c.memoize(b, x, half)
	if a.memo != nil || b.memo == nil {
		t.Fatalf("over the bound: memo a kept=%v, b kept=%v; want only b", a.memo != nil, b.memo != nil)
	}
	c.memoize(a, x, make([]float64, c.memoMax/8+1))
	if a.memo != nil {
		t.Fatal("a memo larger than the bound was kept")
	}
	c.put("c", nil, &strategy.Plan{}) // evicts a, the least recently used plan
	c.memoize(a, x, []float64{1})
	if a.memo != nil {
		t.Fatal("an evicted entry kept a memo")
	}
	if n := memoSlots(t, c); n != 1 {
		t.Fatalf("%d memos resident, want 1", n)
	}
}

// BenchmarkMeasureMemo times the measure stage on the two shapes whose
// exact answers cost the most per release on the serving benchmark —
// Fourier Q2 over a 2^23-cell input (one full blocked WHT per miss) and
// workload Q2 over 2^16 cells (one serial pass) — with the answers read
// from the memo (hit) against recomputed (miss). Both paths draw the same
// noise, so the gap is the exact-answer work the memo saves.
func BenchmarkMeasureMemo(b *testing.B) {
	for _, bc := range []struct {
		name string
		d    int
		s    strategy.Strategy
	}{
		{"fourier-q2-d23", 23, strategy.Fourier{}},
		{"workload-q2-d16", 16, strategy.Workload{}},
	} {
		n := 1 << uint(bc.d)
		x := vector.NewBlockLen(n, vector.DefaultBlockLen)
		rng := rand.New(rand.NewSource(65))
		for i := 0; i < 4*n/100; i++ {
			x.Add(rng.Intn(n), 1)
		}
		vector.Freeze(x)
		w := marginal.AllKWay(bc.d, 2)
		cfg := Config{Strategy: bc.s, Budgeting: OptimalBudget, Privacy: pureParams(1)}
		cache := NewPlanCache(0)
		plan, entry, err := Planner{Cache: cache}.plan(b.Context(), w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		alloc, err := Allocator{}.Allocate(b.Context(), plan.Specs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		workers := runtime.GOMAXPROCS(0)
		for _, mc := range []struct {
			name string
			m    Measurer
		}{
			{"hit", Measurer{cache: cache, entry: entry}},
			{"miss", Measurer{}},
		} {
			b.Run(bc.name+"/"+mc.name, func(b *testing.B) {
				if _, err := mc.m.Measure(b.Context(), plan, x, alloc.Eta, cfg, workers); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mc.m.Measure(b.Context(), plan, x, alloc.Eta, cfg, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

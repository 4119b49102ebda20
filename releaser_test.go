package repro

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// TestReleaserMatchesFreeFunction: the service API and the legacy one-shot
// wrapper are the same mechanism — bit-identical output for the same seed.
func TestReleaserMatchesFreeFunction(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	want, err := Release(tab, w, Options{Epsilon: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReleaser(tab.Schema, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Release(context.Background(), tab, ReleaseSpec{Epsilon: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("answer lengths differ: %d vs %d", len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if math.Float64bits(want.Answers[i]) != math.Float64bits(got.Answers[i]) {
			t.Fatalf("answer %d differs: %v vs %v", i, want.Answers[i], got.Answers[i])
		}
	}
}

// TestReleaserPreplansCache: construction warms the plan cache, so the
// first release is already a cache hit.
func TestReleaserPreplansCache(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 1)
	cache := NewPlanCache()
	r, err := NewReleaser(tab.Schema, w, WithCache(cache), WithStrategy(StrategyCluster))
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("construction should have planned exactly once: %+v", st)
	}
	if _, err := r.Release(context.Background(), tab, ReleaseSpec{Epsilon: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("first release should hit the warmed cache: %+v", st)
	}
}

// TestReleaseBlockedCallerVectorNotMemoised: a caller-owned vector mutated
// in place between two ReleaseBlocked calls releases the new cells — the
// plan cache's answer memo only serves frozen dataset snapshots.
func TestReleaseBlockedCallerVectorNotMemoised(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	ctx := context.Background()
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReleaser(tab.Schema, w)
	if err != nil {
		t.Fatal(err)
	}
	xv := NewBlockedVector(x)
	if _, err := r.ReleaseBlocked(ctx, xv, ReleaseSpec{Epsilon: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		x[i] += float64(i % 5)
		xv.Add(i, float64(i%5))
	}
	got, err := r.ReleaseBlocked(ctx, xv, ReleaseSpec{Epsilon: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewReleaser(tab.Schema, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ReleaseBlocked(ctx, NewBlockedVector(x), ReleaseSpec{Epsilon: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Answers {
		if math.Float64bits(want.Answers[i]) != math.Float64bits(got.Answers[i]) {
			t.Fatalf("answer %d = %v after mutating the vector, want %v", i, got.Answers[i], want.Answers[i])
		}
	}
}

// TestNonFiniteQueryWeightsRefused: a NaN or infinite query weight is an
// invalid option at construction for every strategy — never a release of
// all-NaN answers or a late budgeting failure.
func TestNonFiniteQueryWeightsRefused(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	for _, kind := range []StrategyKind{StrategyFourier, StrategyWorkload, StrategyCluster} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			weights := make([]float64, len(w.Marginals))
			for i := range weights {
				weights[i] = 1
			}
			weights[1] = v
			_, err := NewReleaser(tab.Schema, w, WithStrategy(kind), WithQueryWeights(weights))
			if !errors.Is(err, ErrInvalidOption) {
				t.Errorf("%v: query weight %v: got %v, want ErrInvalidOption", kind, v, err)
			}
		}
	}
}

// TestReleaserTypedErrors: construction and admission failures carry the
// typed sentinels so callers (and the HTTP layer) can branch on errors.Is.
func TestReleaserTypedErrors(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 1)
	other := MustSchema([]Attribute{{Name: "x", Cardinality: 2}})

	if _, err := NewReleaser(other, w); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("schema/workload mismatch: got %v", err)
	}
	if _, err := NewReleaser(tab.Schema, nil); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("nil workload: got %v", err)
	}
	if _, err := NewReleaser(tab.Schema, w, WithWorkers(-1)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("negative workers: got %v", err)
	}
	if _, err := NewReleaser(tab.Schema, w, WithQueryWeights([]float64{1})); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("mis-sized query weights: got %v", err)
	}
	if _, err := NewReleaser(tab.Schema, w, WithStrategy(StrategyKind(99))); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("unknown strategy: got %v", err)
	}

	r, err := NewReleaser(tab.Schema, w)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0}); !errors.Is(err, ErrInvalidEpsilon) {
		t.Fatalf("zero epsilon: got %v", err)
	}
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 1, Delta: 1.5}); !errors.Is(err, ErrInvalidDelta) {
		t.Fatalf("delta out of range: got %v", err)
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: eps}); !errors.Is(err, ErrInvalidEpsilon) {
			t.Fatalf("epsilon %v: got %v", eps, err)
		}
	}
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 1, Delta: math.NaN()}); !errors.Is(err, ErrInvalidDelta) {
		t.Fatalf("NaN delta: got %v", err)
	}
	if _, err := r.ReleaseBlocked(ctx, NewBlockedVector(make([]float64, 4)), ReleaseSpec{Epsilon: 1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("short vector: got %v", err)
	}
	// The legacy free functions surface the same sentinels.
	if _, err := Release(tab, w, Options{}); !errors.Is(err, ErrInvalidEpsilon) {
		t.Fatalf("free function zero epsilon: got %v", err)
	}
	if _, err := Release(nil, w, Options{Epsilon: 1}); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("free function nil table: got %v", err)
	}
}

// TestReleaserBudgetLedger: cumulative spend is tracked, concurrent
// releases never jointly pass the cap, and refusal spends nothing.
func TestReleaserBudgetLedger(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 1)
	r, err := NewReleaser(tab.Schema, w, WithBudgetCap(1.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.4, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	eps, _ := r.Ledger().Spent()
	if math.Abs(eps-0.9) > 1e-12 {
		t.Fatalf("spent ε = %v, want 0.9", eps)
	}
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.2, Seed: 3}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-cap release: got %v", err)
	}
	// The refused release spent nothing.
	if eps, _ := r.Ledger().Spent(); math.Abs(eps-0.9) > 1e-12 {
		t.Fatalf("refused release changed spend to %v", eps)
	}
	// The remaining 0.1 is still usable.
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.1, Seed: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestReleaserBudgetLedgerConcurrent: the ledger's check-and-charge is
// atomic — out of 20 concurrent ε=0.1 requests against a cap of 1.0,
// exactly 10 succeed.
func TestReleaserBudgetLedgerConcurrent(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 1)
	r, err := NewReleaser(tab.Schema, w, WithBudgetCap(1.0+1e-9, 0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]error, 20)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = r.Release(context.Background(), tab,
				ReleaseSpec{Epsilon: 0.1, Seed: int64(i)})
		}(i)
	}
	wg.Wait()
	ok, exhausted := 0, 0
	for _, err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrBudgetExhausted):
			exhausted++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok != 10 || exhausted != 10 {
		t.Fatalf("%d succeeded / %d exhausted, want 10/10", ok, exhausted)
	}
}

// TestReleaserSharedLedgerAcrossReleasers: one ledger caps the combined
// spend of several Releasers — the multi-workload serving deployment.
func TestReleaserSharedLedgerAcrossReleasers(t *testing.T) {
	tab := smallTable()
	ledger, err := NewBudgetLedger(1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewReleaser(tab.Schema, AllKWayMarginals(tab.Schema, 1), WithBudgetLedger(ledger))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewReleaser(tab.Schema, AllKWayMarginals(tab.Schema, 2), WithBudgetLedger(ledger))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r1.Release(ctx, tab, ReleaseSpec{Epsilon: 0.6, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Release(ctx, tab, ReleaseSpec{Epsilon: 0.6, Seed: 2}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("shared ledger must cap combined spend: got %v", err)
	}
}

// TestReleaserCancellation: a cancelled context aborts the release. The
// budget is charged at admission (conservative), so the spend stands.
func TestReleaserCancellation(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	r, err := NewReleaser(tab.Schema, w, WithBudgetCap(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 1, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if eps, _ := r.Ledger().Spent(); eps != 1 {
		t.Fatalf("admitted-then-cancelled release must stay charged, spent ε = %v", eps)
	}
}

// TestReleaserSynthetic: synthetic microdata from the service API is free
// post-processing — no additional ledger spend.
func TestReleaserSynthetic(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	r, err := NewReleaser(tab.Schema, w, WithBudgetCap(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := r.Synthetic(ctx, res, 8)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Count() == 0 {
		t.Fatal("synthetic table is empty")
	}
	if eps, _ := r.Ledger().Spent(); eps != 2 {
		t.Fatalf("synthetic generation changed spend to %v", eps)
	}
}

// TestEffectiveSigma: the single-Gaussian description of a release. The
// optimal and uniform allocators both saturate the Proposition 3.1
// constraint Σ C_g²·η_g² = (ε/κ)², so σ_eff must equal the closed form
// √(2·ln(2/δ))/ε — under either neighbour model, since κ cancels at
// saturation. Pure-DP specs have no Gaussian description and return 0.
func TestEffectiveSigma(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	ctx := context.Background()

	const eps, delta = 0.5, 1e-6
	want := math.Sqrt(2*math.Log(2/delta)) / eps
	for name, opts := range map[string][]ReleaserOption{
		"fourier-optimal": nil,
		"uniform-budget":  {WithUniformBudget()},
		"identity":        {WithStrategy(StrategyIdentity)},
		"modify-model":    {WithModifyNeighbors()},
	} {
		r, err := NewReleaser(tab.Schema, w, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sigma, err := r.EffectiveSigma(ctx, ReleaseSpec{Epsilon: eps, Delta: delta})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sigma-want) > 1e-9*want {
			t.Fatalf("%s: σ_eff = %v, want %v (saturated constraint)", name, sigma, want)
		}
		if s, err := r.EffectiveSigma(ctx, ReleaseSpec{Epsilon: eps}); err != nil || s != 0 {
			t.Fatalf("%s: pure-DP σ_eff = %v, %v, want 0, nil", name, s, err)
		}
	}
}

// TestChargeCarriesSigma: a Gaussian release against a zCDP ledger records
// its exact mechanism description — the accountant then composes
// ρ = 1/(2σ²) instead of the (ε, δ) conversion bound.
func TestChargeCarriesSigma(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 1)
	comp, err := ZCDPComposition(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReleaser(tab.Schema, w, WithBudgetCap(10, 1e-3), WithComposition(comp))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.5, Delta: 1e-5, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.5, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	hist := r.Ledger().History()
	if len(hist) != 2 {
		t.Fatalf("ledger holds %d charges, want 2", len(hist))
	}
	wantSigma, err := r.EffectiveSigma(ctx, ReleaseSpec{Epsilon: 0.5, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if hist[0].Sigma != wantSigma || hist[0].Sensitivity != 1 {
		t.Fatalf("Gaussian charge recorded (σ=%v, Δ=%v), want (σ=%v, Δ=1)",
			hist[0].Sigma, hist[0].Sensitivity, wantSigma)
	}
	if hist[1].Sigma != 0 || hist[1].Sensitivity != 0 {
		t.Fatalf("Laplace charge must not carry a Gaussian description, got %+v", hist[1])
	}
}

// TestZeroQueryWeightRefusedBeforeCharge: under optimal budgeting a zero
// query weight that leaves a strategy group with no weight (Fourier and
// workload strategies, NLTCS Q2 with the first marginal weighted 0) would
// fail every release in budgeting after admission had charged the ledger.
// It is refused with ErrInvalidOption instead: at construction when the
// Releaser preplans, before any charge otherwise — the ledger stays
// untouched. Cluster and identity plans still fund every group under the
// same weights, and uniform budgeting funds every group by construction,
// so those keep releasing.
func TestZeroQueryWeightRefusedBeforeCharge(t *testing.T) {
	tab := SyntheticNLTCS(1, 2000)
	w := AllKWayMarginals(tab.Schema, 2)
	weights := make([]float64, len(w.Marginals))
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = 0
	ctx := context.Background()
	for _, kind := range []StrategyKind{StrategyFourier, StrategyWorkload} {
		if _, err := NewReleaser(tab.Schema, w, WithStrategy(kind), WithQueryWeights(weights), WithBudgetCap(3, 0)); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%v: preplanned construction: got %v, want ErrInvalidOption", kind, err)
		}
		r, err := NewReleaser(tab.Schema, w, WithStrategy(kind), WithQueryWeights(weights), WithBudgetCap(3, 0), WithoutPreplan())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for i := 0; i < 4; i++ {
			if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 1, Seed: int64(i)}); !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("%v: release %d: got %v, want ErrInvalidOption", kind, i, err)
			}
		}
		if eps, _ := r.Ledger().Spent(); eps != 0 || len(r.Ledger().History()) != 0 {
			t.Fatalf("%v: refused releases spent ε = %v over %d charges", kind, eps, len(r.Ledger().History()))
		}
	}
	for _, opts := range [][]ReleaserOption{
		{WithStrategy(StrategyCluster)},
		{WithStrategy(StrategyIdentity)},
		{WithStrategy(StrategyFourier), WithUniformBudget()},
		{WithStrategy(StrategyCluster), WithoutPreplan()},
	} {
		r, err := NewReleaser(tab.Schema, w, append(opts, WithQueryWeights(weights), WithBudgetCap(3, 0))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 1, Seed: 1}); err != nil {
			t.Fatalf("%v: %v", r.Strategy(), err)
		}
	}
}

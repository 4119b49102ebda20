package rangequery

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/noise"
)

func pureParams(eps float64) noise.Params {
	return noise.Params{Type: noise.PureDP, Epsilon: eps, Neighbor: noise.AddRemove}
}

func testData(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(50))
	}
	return x
}

func TestWorkloadEval(t *testing.T) {
	w, err := NewWorkload(5, []Interval{{0, 5}, {1, 3}, {4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	got := w.Eval([]float64{1, 2, 3, 4, 5})
	if got[0] != 15 || got[1] != 5 || got[2] != 0 {
		t.Fatalf("Eval = %v", got)
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, err := NewWorkload(0, nil); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewWorkload(4, []Interval{{3, 2}}); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, err := NewWorkload(4, []Interval{{0, 5}}); err == nil {
		t.Error("interval past the domain accepted")
	}
}

func TestAllRangesCount(t *testing.T) {
	w := AllRanges(6)
	if len(w.Intervals) != 21 { // C(6,2)+6 = 21
		t.Fatalf("AllRanges(6) has %d intervals, want 21", len(w.Intervals))
	}
}

func TestMethodsUnbiasedAndVarianceMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 32
	x := testData(rng, n)
	w := AllRanges(n)
	truth := w.Eval(x)
	for _, m := range []Method{Hierarchy, Wavelet, Flat} {
		const trials = 800
		sum := make([]float64, len(truth))
		sumSq := make([]float64, len(truth))
		var rel *Release
		for tr := 0; tr < trials; tr++ {
			var err error
			rel, err = Run(context.Background(), w, x, m, "optimal", pureParams(1), int64(tr), 1)
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			for i, v := range rel.Answers {
				d := v - truth[i]
				sum[i] += d
				sumSq[i] += d * d
			}
		}
		// Spot-check bias and variance on a few queries.
		for _, qi := range []int{0, len(truth) / 2, len(truth) - 1} {
			bias := sum[qi] / trials
			va := sumSq[qi] / trials
			want := rel.QueryVariances[qi]
			if math.Abs(bias) > 4*math.Sqrt(want/trials)+1e-9 {
				t.Errorf("%v query %d: bias %v too large (σ=%v)", m, qi, bias, math.Sqrt(want))
			}
			if math.Abs(va-want)/want > 0.25 {
				t.Errorf("%v query %d: empirical var %v vs analytic %v", m, qi, va, want)
			}
		}
	}
}

func TestOptimalBeatsUniformForHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 64
	x := testData(rng, n)
	w := AllRanges(n)
	for _, m := range []Method{Hierarchy, Wavelet} {
		uni, err := Run(context.Background(), w, x, m, "uniform", pureParams(1), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Run(context.Background(), w, x, m, "optimal", pureParams(1), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if opt.TotalVariance > uni.TotalVariance*(1+1e-9) {
			t.Fatalf("%v: optimal %v worse than uniform %v", m, opt.TotalVariance, uni.TotalVariance)
		}
		if opt.TotalVariance >= uni.TotalVariance*0.999 {
			t.Logf("%v: optimal %v ≈ uniform %v (tie is allowed but unexpected)", m, opt.TotalVariance, uni.TotalVariance)
		}
	}
}

func TestHierarchyBeatsFlatOnLongRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Flat accumulates Θ(length) variance per range; the hierarchy pays
	// Θ(log³ n) (log² from budget splitting, log from the decomposition),
	// so it wins once the domain is large enough — use a domain safely past
	// the crossover.
	n := 4096
	x := testData(rng, n)
	var ivs []Interval
	for i := 0; i < 40; i++ {
		ivs = append(ivs, Interval{0, n - i})
	}
	w, err := NewWorkload(n, ivs)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Run(context.Background(), w, x, Flat, "optimal", pureParams(1), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := Run(context.Background(), w, x, Hierarchy, "optimal", pureParams(1), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hier.TotalVariance >= flat.TotalVariance {
		t.Fatalf("hierarchy %v should beat flat %v on long ranges", hier.TotalVariance, flat.TotalVariance)
	}
}

func TestWaveletExactWithoutNoise(t *testing.T) {
	// Internal coherence: with a huge ε the wavelet path must reproduce the
	// exact answers (transform/indicator bookkeeping check).
	rng := rand.New(rand.NewSource(5))
	n := 37 // non-power-of-two domain exercises padding
	x := testData(rng, n)
	w := AllRanges(n)
	truth := w.Eval(x)
	rel, err := Run(context.Background(), w, x, Wavelet, "optimal", pureParams(1e9), 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(rel.Answers[i]-truth[i]) > 1e-3 {
			t.Fatalf("query %d: %v vs %v", i, rel.Answers[i], truth[i])
		}
	}
}

func TestHierarchyExactWithoutNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 19
	x := testData(rng, n)
	w := AllRanges(n)
	truth := w.Eval(x)
	rel, err := Run(context.Background(), w, x, Hierarchy, "uniform", pureParams(1e9), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(rel.Answers[i]-truth[i]) > 1e-3 {
			t.Fatalf("query %d: %v vs %v", i, rel.Answers[i], truth[i])
		}
	}
}

func TestRunValidation(t *testing.T) {
	w := AllRanges(8)
	if _, err := Run(context.Background(), w, make([]float64, 4), Hierarchy, "optimal", pureParams(1), 0, 1); err == nil {
		t.Error("short data accepted")
	}
	if _, err := Run(context.Background(), w, make([]float64, 8), Hierarchy, "optimal", noise.Params{}, 0, 1); err == nil {
		t.Error("invalid privacy accepted")
	}
	if _, err := Run(context.Background(), w, make([]float64, 8), Method(99), "optimal", pureParams(1), 0, 1); err == nil {
		t.Error("unknown method accepted")
	}
}

func BenchmarkHierarchyAllRanges256(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 256
	x := testData(rng, n)
	w := AllRanges(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), w, x, Hierarchy, "optimal", pureParams(1), int64(i), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSparseWorkloadSkipsUnusedLevels is a regression test: a workload
// whose dyadic decompositions never touch some tree level must not try to
// budget that level (it used to panic with "non-positive row budget").
func TestSparseWorkloadSkipsUnusedLevels(t *testing.T) {
	n := 64
	x := testData(rand.New(rand.NewSource(8)), n)
	// Only full-domain queries: the decomposition uses the root alone.
	w, err := NewWorkload(n, []Interval{{0, n}, {0, n}})
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Eval(x)
	for _, m := range []Method{Hierarchy, Wavelet} {
		for _, budgets := range []string{"uniform", "optimal"} {
			rel, err := Run(context.Background(), w, x, m, budgets, pureParams(1e9), 1, 1)
			if err != nil {
				t.Fatalf("%v/%s: %v", m, budgets, err)
			}
			for i := range truth {
				if math.Abs(rel.Answers[i]-truth[i]) > 1e-3 {
					t.Fatalf("%v/%s: answer %v vs %v", m, budgets, rel.Answers[i], truth[i])
				}
			}
		}
	}
	// Root-only release under the hierarchy: all budget on one node, so the
	// variance at huge ε is tiny, and with ε=1 equals 2 (a single Laplace).
	rel, err := Run(context.Background(), w, x, Hierarchy, "optimal", pureParams(1), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel.QueryVariances[0]-2) > 1e-9 {
		t.Fatalf("root-only query variance %v, want 2 (one Laplace at full ε)", rel.QueryVariances[0])
	}
}

// TestEmptyRangesOnly: degenerate workloads release nothing and cost no
// budget.
func TestEmptyRangesOnly(t *testing.T) {
	w, err := NewWorkload(8, []Interval{{3, 3}, {5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	for _, m := range []Method{Hierarchy, Wavelet} {
		rel, err := Run(context.Background(), w, x, m, "optimal", pureParams(1), 3, 1)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i, v := range rel.Answers {
			if v != 0 || rel.QueryVariances[i] != 0 {
				t.Fatalf("%v: empty range released %v ± %v", m, v, rel.QueryVariances[i])
			}
		}
	}
}

// TestRunParallelBitIdentical: every method's release is a pure function of
// the seed — the worker count changes nothing, per the engine's substream
// determinism contract.
func TestRunParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 256
	x := testData(rng, n)
	w, err := NewWorkload(n, []Interval{{0, 10}, {5, 200}, {100, 256}, {0, 256}})
	if err != nil {
		t.Fatal(err)
	}
	p := pureParams(1)
	for _, m := range []Method{Flat, Hierarchy, Wavelet} {
		for _, budgets := range []string{"uniform", "optimal"} {
			ref, err := Run(context.Background(), w, x, m, budgets, p, 17, 1)
			if err != nil {
				t.Fatalf("%v/%s serial: %v", m, budgets, err)
			}
			for _, workers := range []int{2, 4} {
				got, err := Run(context.Background(), w, x, m, budgets, p, 17, workers)
				if err != nil {
					t.Fatalf("%v/%s workers=%d: %v", m, budgets, workers, err)
				}
				for i := range ref.Answers {
					if math.Float64bits(ref.Answers[i]) != math.Float64bits(got.Answers[i]) {
						t.Fatalf("%v/%s: answer %d differs at %d workers", m, budgets, i, workers)
					}
				}
			}
		}
	}
}

package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/consistency"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/strategy"
	"repro/internal/vector"
)

func pureParams(eps float64) noise.Params {
	return noise.Params{Type: noise.PureDP, Epsilon: eps, Neighbor: noise.AddRemove}
}

// run releases a dense contingency vector serially through the engine's
// one entry, RunVector.
func run(w *marginal.Workload, x []float64, cfg engine.Config) (*engine.Release, error) {
	return engine.New(engine.Options{Workers: 1}).RunVector(context.Background(), w, vector.FromDense(x), cfg)
}

func testX(rng *rand.Rand, d int) []float64 {
	x := make([]float64, 1<<uint(d))
	for i := range x {
		x[i] = float64(rng.Intn(20))
	}
	return x
}

func allStrategies() []strategy.Strategy {
	return []strategy.Strategy{
		strategy.Identity{}, strategy.Workload{}, strategy.Fourier{}, strategy.Cluster{},
	}
}

func TestRunAllStrategiesProduceAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	for _, s := range allStrategies() {
		for _, b := range []engine.Budgeting{engine.UniformBudget, engine.OptimalBudget} {
			rel, err := run(w, x, engine.Config{
				Strategy: s, Budgeting: b, Privacy: pureParams(1), Seed: 7,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name(), b, err)
			}
			if len(rel.Answers) != w.TotalCells() {
				t.Fatalf("%s: %d answers, want %d", s.Name(), len(rel.Answers), w.TotalCells())
			}
			if rel.TotalVariance <= 0 || math.IsNaN(rel.TotalVariance) {
				t.Fatalf("%s: bad total variance %v", s.Name(), rel.TotalVariance)
			}
		}
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := 5
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	cfg := engine.Config{Strategy: strategy.Fourier{}, Budgeting: engine.OptimalBudget, Privacy: pureParams(0.5), Seed: 11}
	a, err := run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Answers {
		if a.Answers[i] != b.Answers[i] {
			t.Fatal("same seed must reproduce the release")
		}
	}
	cfg.Seed = 12
	c, err := run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Answers {
		if a.Answers[i] != c.Answers[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestOptimalBudgetNeverWorseAnalytically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 6
	x := testX(rng, d)
	for _, w := range []*marginal.Workload{
		marginal.AllKWay(d, 1),
		marginal.AllKWay(d, 2),
		marginal.MustWorkload(d, []bits.Mask{0b000001, 0b001111, 0b110011}),
	} {
		for _, s := range allStrategies() {
			uni, err := run(w, x, engine.Config{Strategy: s, Budgeting: engine.UniformBudget, Privacy: pureParams(1), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := run(w, x, engine.Config{Strategy: s, Budgeting: engine.OptimalBudget, Privacy: pureParams(1), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if opt.TotalVariance > uni.TotalVariance*(1+1e-9) {
				t.Fatalf("%s: optimal variance %v worse than uniform %v", s.Name(), opt.TotalVariance, uni.TotalVariance)
			}
		}
	}
}

func TestRunIsUnbiasedEmpirically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 4
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	truth := w.Eval(x)
	for _, s := range []strategy.Strategy{strategy.Workload{}, strategy.Fourier{}} {
		const trials = 3000
		sums := make([]float64, len(truth))
		for tr := 0; tr < trials; tr++ {
			rel, err := run(w, x, engine.Config{Strategy: s, Budgeting: engine.OptimalBudget, Privacy: pureParams(1), Seed: int64(tr)})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range rel.Answers {
				sums[i] += v
			}
		}
		for i := range sums {
			mean := sums[i] / trials
			tolBias := 4 * math.Sqrt(64/float64(trials)) // generous CI given var ≲ 64
			if math.Abs(mean-truth[i]) > tolBias+1 {
				t.Fatalf("%s cell %d: mean %v vs truth %v", s.Name(), i, mean, truth[i])
			}
		}
	}
}

func TestConsistencyModesProduceConsistentOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 4
	x := testX(rng, d)
	w := marginal.MustWorkload(d, []bits.Mask{0b0011, 0b0110, 0b1100})
	for _, mode := range []engine.Consistency{engine.L2Consistency, engine.WeightedL2Consistency, engine.L1Consistency, engine.LInfConsistency} {
		rel, err := run(w, x, engine.Config{
			Strategy: strategy.Workload{}, Budgeting: engine.OptimalBudget,
			Consistency: mode, Privacy: pureParams(0.5), Seed: 9,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !consistency.IsConsistent(w, rel.Answers, 1e-6) {
			t.Fatalf("%v output inconsistent", mode)
		}
		if rel.Coefficients == nil {
			t.Fatalf("%v did not report coefficients", mode)
		}
	}
}

func TestIdentityOutputAlreadyConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 5
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	rel, err := run(w, x, engine.Config{Strategy: strategy.Identity{}, Budgeting: engine.UniformBudget, Privacy: pureParams(1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !consistency.IsConsistent(w, rel.Answers, 1e-6) {
		t.Fatal("identity-strategy marginals must be consistent by construction")
	}
}

func TestPrivacyAccountingGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 4
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	if _, err := run(w, x, engine.Config{Strategy: strategy.Workload{}, Privacy: noise.Params{Epsilon: 0}}); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if _, err := run(w, x, engine.Config{Privacy: pureParams(1)}); err == nil {
		t.Error("nil strategy accepted")
	}
	if _, err := run(w, x[:3], engine.Config{Strategy: strategy.Workload{}, Privacy: pureParams(1)}); err == nil {
		t.Error("short data vector accepted")
	}
}

func TestGaussianMechanismRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := 5
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	p := noise.Params{Type: noise.ApproxDP, Epsilon: 1, Delta: 1e-5, Neighbor: noise.AddRemove}
	for _, s := range allStrategies() {
		rel, err := run(w, x, engine.Config{Strategy: s, Budgeting: engine.OptimalBudget, Privacy: p, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(rel.Answers) != w.TotalCells() {
			t.Fatalf("%s: wrong answer count", s.Name())
		}
	}
}

func TestErrorDecreasesWithEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	truth := w.Eval(x)
	measure := func(eps float64) float64 {
		total := 0.0
		const trials = 30
		for tr := 0; tr < trials; tr++ {
			rel, err := run(w, x, engine.Config{Strategy: strategy.Fourier{}, Budgeting: engine.OptimalBudget, Privacy: pureParams(eps), Seed: int64(tr)})
			if err != nil {
				t.Fatal(err)
			}
			total += marginal.RelativeError(truth, rel.Answers)
		}
		return total / trials
	}
	if lo, hi := measure(1.0), measure(0.1); lo >= hi {
		t.Fatalf("error at ε=1 (%v) should be below ε=0.1 (%v)", lo, hi)
	}
}

func TestPerMarginal(t *testing.T) {
	w := marginal.MustWorkload(3, []bits.Mask{0b100, 0b110})
	answers := []float64{4, 1, 3, 1, 0, 1}
	per := PerMarginal(w, answers)
	if len(per) != 2 || len(per[0]) != 2 || len(per[1]) != 4 {
		t.Fatalf("PerMarginal shapes wrong: %v", per)
	}
	if per[0][0] != 4 || per[1][3] != 1 {
		t.Fatalf("PerMarginal values wrong: %v", per)
	}
	per[0][0] = 99
	if answers[0] == 99 {
		t.Fatal("PerMarginal must copy")
	}
}

func TestExpectedAbsError(t *testing.T) {
	w := marginal.MustWorkload(3, []bits.Mask{0b011})
	got := ExpectedAbsError(w, []float64{math.Pi / 2})
	if math.Abs(got[0]-4) > 1e-12 { // 4 cells · √(2·(π/2)/π) = 4
		t.Fatalf("ExpectedAbsError = %v, want 4", got[0])
	}
}

func TestBoundsTable1Relationships(t *testing.T) {
	p := pureParams(1)
	for _, d := range []int{10, 14, 16} {
		for _, k := range []int{1, 2, 3} {
			lower := BoundLower(d, k, p)
			fnu := BoundFourierNonUniform(d, k, p)
			fu := BoundFourierUniform(d, k, p)
			if fnu < lower {
				t.Fatalf("d=%d k=%d: non-uniform bound %v below lower bound %v", d, k, fnu, lower)
			}
			if fnu > fu*(1+1e-9) {
				t.Fatalf("d=%d k=%d: non-uniform %v must improve on uniform %v", d, k, fnu, fu)
			}
		}
	}
}

func TestBoundsApproxDPTighter(t *testing.T) {
	// For fixed ε and moderate δ the (ε,δ) bounds grow like √ of the pure
	// bounds in the combinatorial terms.
	pPure := pureParams(1)
	pApprox := noise.Params{Type: noise.ApproxDP, Epsilon: 1, Delta: 1e-6, Neighbor: noise.AddRemove}
	d, k := 16, 3
	if BoundFourierNonUniform(d, k, pApprox) >= BoundFourierNonUniform(d, k, pPure) {
		t.Fatal("(ε,δ) Fourier bound should beat pure DP at these parameters")
	}
}

func TestClusterBeatsWorkloadOnOverlappingQ1(t *testing.T) {
	// On Q1-style workloads the clustering can answer several 1-way
	// marginals from one material marginal; analytically its optimal-budget
	// variance should not exceed the Q strategy's by much, and in the
	// paper's experiments it wins. Check at least non-inferiority here on a
	// small overlapping workload.
	rng := rand.New(rand.NewSource(10))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	q, err := run(w, x, engine.Config{Strategy: strategy.Workload{}, Budgeting: engine.OptimalBudget, Privacy: pureParams(1), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := run(w, x, engine.Config{Strategy: strategy.Cluster{}, Budgeting: engine.OptimalBudget, Privacy: pureParams(1), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalVariance > q.TotalVariance*3 {
		t.Fatalf("cluster variance %v far worse than workload %v", c.TotalVariance, q.TotalVariance)
	}
}

func BenchmarkRunFourierOptimalD10Q2(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	d := 10
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(w, x, engine.Config{Strategy: strategy.Fourier{}, Budgeting: engine.OptimalBudget, Privacy: pureParams(1), Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQueryWeightsFlowThroughRun(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	d := 6
	x := testX(rng, d)
	w := marginal.MustWorkload(d, []bits.Mask{0b000011, 0b111100})
	a := []float64{100, 0.01}
	plain, err := run(w, x, engine.Config{Strategy: strategy.Workload{}, Budgeting: engine.OptimalBudget, Privacy: pureParams(1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := run(w, x, engine.Config{Strategy: strategy.Workload{}, Budgeting: engine.OptimalBudget, Privacy: pureParams(1), Seed: 1, QueryWeights: a})
	if err != nil {
		t.Fatal(err)
	}
	if weighted.CellVariances[0] >= plain.CellVariances[0] {
		t.Fatalf("weighting marginal 0 must reduce its variance: %v vs %v",
			weighted.CellVariances[0], plain.CellVariances[0])
	}
	if weighted.CellVariances[1] <= plain.CellVariances[1] {
		t.Fatalf("deprioritised marginal should pay more variance: %v vs %v",
			weighted.CellVariances[1], plain.CellVariances[1])
	}
	// Bad weights rejected.
	if _, err := run(w, x, engine.Config{Strategy: strategy.Workload{}, Privacy: pureParams(1), QueryWeights: []float64{1}}); err == nil {
		t.Fatal("short query weights accepted")
	}
	// Strategies without WeightedPlanner are rejected cleanly.
	if _, err := run(w, x, engine.Config{Strategy: strategy.HierarchyMarginal{}, Privacy: pureParams(1), QueryWeights: []float64{1, 1}}); err == nil {
		t.Fatal("unweightable strategy accepted query weights")
	}
}

func TestPreviewMatchesRunAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	for _, s := range allStrategies() {
		for _, b := range []engine.Budgeting{engine.UniformBudget, engine.OptimalBudget} {
			cfg := engine.Config{Strategy: s, Budgeting: b, Privacy: pureParams(0.7), Seed: 5}
			fc, err := Preview(w, cfg)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			rel, err := run(w, x, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(fc.TotalVariance-rel.TotalVariance) > 1e-9*(1+rel.TotalVariance) {
				t.Fatalf("%s/%v: preview variance %v != run variance %v",
					s.Name(), b, fc.TotalVariance, rel.TotalVariance)
			}
			for i := range fc.CellStdDev {
				want := math.Sqrt(rel.CellVariances[i])
				if math.Abs(fc.CellStdDev[i]-want) > 1e-9*(1+want) {
					t.Fatalf("%s: cell σ mismatch at %d", s.Name(), i)
				}
			}
			for _, e := range fc.ExpectedAbsError {
				if e <= 0 || math.IsNaN(e) {
					t.Fatalf("%s: bad expected error %v", s.Name(), e)
				}
			}
		}
	}
}

func TestPreviewNeedsNoData(t *testing.T) {
	// Preview must work for domains far too large to materialise data for.
	w := marginal.AllKWay(20, 1) // N = 2^20; identity plan has 2^20 rows
	fc, err := Preview(w, engine.Config{Strategy: strategy.Fourier{}, Budgeting: engine.OptimalBudget, Privacy: pureParams(1)})
	if err != nil {
		t.Fatal(err)
	}
	if fc.TotalVariance <= 0 {
		t.Fatal("empty forecast")
	}
}

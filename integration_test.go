package repro_test

import (
	"math"
	"testing"

	"repro"
	"repro/internal/accountant"
	"repro/internal/bits"
	"repro/internal/consistency"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/strategy"
	"repro/internal/synth"
)

// TestAllStrategiesConvergeToTruth: as ε → ∞ every strategy/budgeting
// combination converges to the exact workload answers — a cross-strategy
// integration invariant exercising the full plan/answer/recover pipeline.
func TestAllStrategiesConvergeToTruth(t *testing.T) {
	tab := dataset.SyntheticBinary(1, 8, 2000)
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	w := marginal.SchemaKWayStar(tab.Schema, 1)
	truth := w.Eval(x)
	for _, s := range []strategy.Strategy{
		strategy.Identity{}, strategy.Workload{}, strategy.Fourier{}, strategy.Cluster{},
	} {
		for _, b := range []engine.Budgeting{engine.UniformBudget, engine.OptimalBudget} {
			rel, err := runDense(w, x, engine.Config{
				Strategy: s, Budgeting: b,
				Consistency: engine.WeightedL2Consistency,
				Privacy:     noise.Params{Type: noise.PureDP, Epsilon: 1e9, Neighbor: noise.AddRemove},
				Seed:        1,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name(), b, err)
			}
			for i := range truth {
				if math.Abs(rel.Answers[i]-truth[i]) > 1e-3 {
					t.Fatalf("%s/%v: answer %d = %v, truth %v", s.Name(), b, i, rel.Answers[i], truth[i])
				}
			}
		}
	}
}

// TestConsistencyIdempotent: projecting an already consistent release again
// must be a no-op (the projection is onto a linear subspace).
func TestConsistencyIdempotent(t *testing.T) {
	tab := dataset.SyntheticBinary(2, 7, 1500)
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	w := marginal.SchemaKWay(tab.Schema, 2)
	rel, err := runDense(w, x, engine.Config{
		Strategy: strategy.Workload{}, Budgeting: engine.OptimalBudget,
		Consistency: engine.WeightedL2Consistency,
		Privacy:     noise.Params{Type: noise.PureDP, Epsilon: 0.5, Neighbor: noise.AddRemove},
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	again, err := consistency.L2(w, rel.Answers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rel.Answers {
		if math.Abs(again.Answers[i]-rel.Answers[i]) > 1e-7 {
			t.Fatalf("consistency not idempotent at %d: %v vs %v", i, again.Answers[i], rel.Answers[i])
		}
	}
}

// TestFullPipelineWithAccountant: several releases over one dataset under a
// ledger, each strategy charged sequentially, overrun rejected.
func TestFullPipelineWithAccountant(t *testing.T) {
	tab := repro.SyntheticNLTCS(3, 4000)
	acct, err := accountant.New(1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	w1 := repro.AllKWayMarginals(tab.Schema, 1)
	release := func(label string, eps float64) error {
		if err := acct.Charge(accountant.Charge{Label: label, Epsilon: eps}); err != nil {
			return err
		}
		_, err := repro.Release(tab, w1, repro.Options{Epsilon: eps, Seed: 9})
		return err
	}
	if err := release("q1-initial", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := release("q1-refresh", 0.3); err != nil {
		t.Fatal(err)
	}
	if err := release("q1-overrun", 0.5); err == nil {
		t.Fatal("budget overrun was not rejected")
	}
	eps, _ := acct.Spent()
	if math.Abs(eps-0.8) > 1e-12 {
		t.Fatalf("ledger spent %v, want 0.8", eps)
	}
}

// TestCubeToSyntheticRoundTrip: release a cube, materialise synthetic data
// from its order-2 workload, and verify the synthetic cube's cuboids remain
// close to the released ones.
func TestCubeToSyntheticRoundTrip(t *testing.T) {
	s := repro.MustSchema([]repro.Attribute{
		{Name: "a", Cardinality: 3},
		{Name: "b", Cardinality: 2},
		{Name: "c", Cardinality: 3},
	})
	rows := make([][]int, 0, 1200)
	for i := 0; i < 1200; i++ {
		rows = append(rows, []int{i % 3, (i / 3) % 2, (i / 7) % 3})
	}
	tab := &repro.Table{Schema: s, Rows: rows}
	w := repro.AllKWayMarginals(s, 2)
	res, err := repro.Release(tab, w, repro.Options{Epsilon: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := repro.SyntheticData(s, w, res, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic table must reproduce the released 2-way tables within
	// clamping+rounding distance.
	exact, err := repro.Release(syn, w, repro.Options{Epsilon: 1e12, SkipConsistency: true, Strategy: repro.StrategyWorkload})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range res.Answers {
		if d := math.Abs(exact.Answers[i] - res.Answers[i]); d > worst {
			worst = d
		}
	}
	if worst > 25 {
		t.Fatalf("synthetic cuboids drifted by %v from the release", worst)
	}
}

// TestFailureInjection: malformed inputs fail loudly everywhere, never
// silently release garbage.
func TestFailureInjection(t *testing.T) {
	tab := dataset.SyntheticBinary(4, 6, 100)
	x, _ := tab.Vector()
	w := marginal.SchemaKWay(tab.Schema, 1)
	pure := noise.Params{Type: noise.PureDP, Epsilon: 1, Neighbor: noise.AddRemove}

	cases := []struct {
		name string
		cfg  engine.Config
		data []float64
	}{
		{"nil strategy", engine.Config{Privacy: pure}, x},
		{"zero epsilon", engine.Config{Strategy: strategy.Fourier{}, Privacy: noise.Params{}}, x},
		{"short data", engine.Config{Strategy: strategy.Fourier{}, Privacy: pure}, x[:5]},
		{"bad delta", engine.Config{Strategy: strategy.Fourier{}, Privacy: noise.Params{Type: noise.ApproxDP, Epsilon: 1, Delta: 2}}, x},
	}
	for _, c := range cases {
		if _, err := runDense(w, c.data, c.cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}

	// Synth layer rejects nonsense too.
	if _, err := synth.MaterializeVector(99, nil, nil); err == nil {
		t.Error("bad dimension accepted by MaterializeVector")
	}
	if _, err := consistency.L2(w, make([]float64, 1)); err == nil {
		t.Error("short consistency input accepted")
	}
}

// TestSeedIsolation: two releases with different seeds share no noise, but
// the analytic variance accounting is identical.
func TestSeedIsolation(t *testing.T) {
	tab := dataset.SyntheticBinary(5, 8, 500)
	x, _ := tab.Vector()
	w := marginal.SchemaKWay(tab.Schema, 1)
	cfg := engine.Config{
		Strategy: strategy.Fourier{}, Budgeting: engine.OptimalBudget,
		Privacy: noise.Params{Type: noise.PureDP, Epsilon: 0.5, Neighbor: noise.AddRemove},
	}
	cfg.Seed = 1
	a, err := runDense(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := runDense(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalVariance != b.TotalVariance {
		t.Fatalf("analytic variance must not depend on the seed: %v vs %v", a.TotalVariance, b.TotalVariance)
	}
	same := 0
	for i := range a.Answers {
		if a.Answers[i] == b.Answers[i] {
			same++
		}
	}
	if same == len(a.Answers) {
		t.Fatal("different seeds produced identical noise")
	}
}

// TestWorkloadSubsetMonotonicity: adding marginals to the workload can only
// increase the total analytic variance at fixed ε (more queries, same
// budget) for the workload strategy.
func TestWorkloadSubsetMonotonicity(t *testing.T) {
	tab := dataset.SyntheticBinary(6, 8, 500)
	x, _ := tab.Vector()
	pure := noise.Params{Type: noise.PureDP, Epsilon: 1, Neighbor: noise.AddRemove}
	small := marginal.MustWorkload(8, []bits.Mask{0b00000011, 0b00001100})
	big := marginal.MustWorkload(8, []bits.Mask{0b00000011, 0b00001100, 0b00110000, 0b11000000})
	run := func(w *marginal.Workload) float64 {
		rel, err := runDense(w, x, engine.Config{
			Strategy: strategy.Workload{}, Budgeting: engine.OptimalBudget, Privacy: pure, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rel.TotalVariance
	}
	if run(big) <= run(small) {
		t.Fatal("larger workload must cost more variance at fixed ε")
	}
}

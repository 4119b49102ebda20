package strategy

import (
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/budget"
	"repro/internal/marginal"
	"repro/internal/noise"
)

func weightedStrategies() []Strategy {
	return []Strategy{Identity{}, Workload{}, Fourier{}, Cluster{}}
}

func TestPlanWeightedNilEqualsPlan(t *testing.T) {
	w := marginal.MustWorkload(5, []bits.Mask{0b00001, 0b00110, 0b11001})
	for _, s := range weightedStrategies() {
		base, err := s.Plan(w)
		if err != nil {
			t.Fatal(err)
		}
		weighted, err := s.PlanWeighted(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Specs) != len(weighted.Specs) {
			t.Fatalf("%s: spec count differs", s.Name())
		}
		for i := range base.Specs {
			if math.Abs(base.Specs[i].RowWeight-weighted.Specs[i].RowWeight) > 1e-12 {
				t.Fatalf("%s: spec %d weight %v vs %v", s.Name(), i,
					base.Specs[i].RowWeight, weighted.Specs[i].RowWeight)
			}
		}
	}
}

func TestPlanWeightedAllOnesEqualsPlan(t *testing.T) {
	w := marginal.AllKWay(5, 2)
	ones := make([]float64, len(w.Marginals))
	for i := range ones {
		ones[i] = 1
	}
	for _, s := range weightedStrategies() {
		base, _ := s.Plan(w)
		weighted, err := s.PlanWeighted(w, ones)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Specs {
			if math.Abs(base.Specs[i].RowWeight-weighted.Specs[i].RowWeight) > 1e-9 {
				t.Fatalf("%s: a=1 must equal unweighted at spec %d", s.Name(), i)
			}
		}
	}
}

func TestPlanWeightedValidation(t *testing.T) {
	w := marginal.AllKWay(4, 1)
	for _, s := range weightedStrategies() {
		if _, err := s.PlanWeighted(w, []float64{1}); err == nil {
			t.Errorf("%s: short weights accepted", s.Name())
		}
		bad := make([]float64, len(w.Marginals))
		bad[0] = -1
		if _, err := s.PlanWeighted(w, bad); err == nil {
			t.Errorf("%s: negative weight accepted", s.Name())
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad[0] = v
			if _, err := s.PlanWeighted(w, bad); err == nil {
				t.Errorf("%s: query weight %v accepted", s.Name(), v)
			}
		}
	}
}

// TestWeightedBudgetingShiftsNoise: with all the importance on one marginal,
// the optimal budgets give that marginal (weakly) lower variance than the
// uniform-importance plan does, at the same ε.
func TestWeightedBudgetingShiftsNoise(t *testing.T) {
	w := marginal.MustWorkload(6, []bits.Mask{0b000011, 0b111100})
	p := noise.Params{Type: noise.PureDP, Epsilon: 1, Neighbor: noise.AddRemove}
	a := []float64{10, 0.01} // marginal 0 is what we care about
	for _, s := range []Strategy{Workload{}, Fourier{}} {
		variance := func(weights []float64) float64 {
			var plan *Plan
			var err error
			if weights == nil {
				plan, err = s.Plan(w)
			} else {
				plan, err = s.PlanWeighted(w, weights)
			}
			if err != nil {
				t.Fatal(err)
			}
			alloc, err := budget.OptimalSpecs(plan.Specs, p)
			if err != nil {
				t.Fatal(err)
			}
			groupVar := budget.SpecVariances(alloc.Eta, p)
			_, cellVar, err := plan.Recover(plan.Answers(make([]float64, 64)), groupVar)
			if err != nil {
				t.Fatal(err)
			}
			return cellVar[0] // variance of the important marginal
		}
		unweighted := variance(nil)
		weighted := variance(a)
		if weighted >= unweighted {
			t.Errorf("%s: weighting marginal 0 should cut its variance: %v vs %v",
				s.Name(), weighted, unweighted)
		}
	}
}

// TestWeightedObjectiveOptimality: among the two plans, each minimises its
// own weighted objective (cross-check that the closed form optimises what
// it claims to).
func TestWeightedObjectiveOptimality(t *testing.T) {
	w := marginal.MustWorkload(6, []bits.Mask{0b000011, 0b111100})
	p := noise.Params{Type: noise.PureDP, Epsilon: 1, Neighbor: noise.AddRemove}
	a := []float64{10, 0.01}
	s := Workload{}
	objective := func(plan *Plan, weights []float64) float64 {
		alloc, err := budget.OptimalSpecs(plan.Specs, p)
		if err != nil {
			t.Fatal(err)
		}
		groupVar := budget.SpecVariances(alloc.Eta, p)
		_, cellVar, err := plan.Recover(plan.Answers(make([]float64, 64)), groupVar)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for i, m := range w.Marginals {
			total += weights[i] * float64(m.Cells()) * cellVar[i]
		}
		return total
	}
	planA, err := s.PlanWeighted(w, a)
	if err != nil {
		t.Fatal(err)
	}
	planOnes, err := s.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	if objective(planA, a) > objective(planOnes, a)*(1+1e-9) {
		t.Fatalf("weighted plan must minimise the weighted objective: %v vs %v",
			objective(planA, a), objective(planOnes, a))
	}
	ones := []float64{1, 1}
	if objective(planOnes, ones) > objective(planA, ones)*(1+1e-9) {
		t.Fatalf("unweighted plan must minimise the unweighted objective: %v vs %v",
			objective(planOnes, ones), objective(planA, ones))
	}
}

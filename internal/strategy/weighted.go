package strategy

import (
	"fmt"
	"math"

	"repro/internal/marginal"
)

// WeightedPlanner is implemented by strategies that support the paper's
// general objective aᵀ·Var(y) (Section 2): a[i] is the importance weight of
// marginal i, scaling its contribution to the variance the Step-2 budgeting
// minimises. Plan(w) is equivalent to PlanWeighted(w, nil) (a = 1).
type WeightedPlanner interface {
	Strategy
	PlanWeighted(w *marginal.Workload, a []float64) (*Plan, error)
}

// ParallelPlanner is implemented by strategies whose planning search can
// fan out across the engine worker pool. The contract is strict
// determinism: PlanParallel must produce a bit-identical plan at every
// worker count (0 = all CPUs, 1 = serial) — parallelism may only change
// how fast the search runs, never which plan it finds — so the plan cache
// and the persisted PlanRecord stay topology-independent.
// PlanParallel(w, a, 1) is equivalent to PlanWeighted(w, a).
type ParallelPlanner interface {
	WeightedPlanner
	PlanParallel(w *marginal.Workload, a []float64, workers int) (*Plan, error)
}

// checkWeights validates a per-marginal weight vector.
func checkWeights(w *marginal.Workload, a []float64) error {
	if a == nil {
		return nil
	}
	if len(a) != len(w.Marginals) {
		return fmt.Errorf("strategy: %d query weights for %d marginals", len(a), len(w.Marginals))
	}
	for i, v := range a {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("strategy: query weight %v for marginal %d is not finite and non-negative", v, i)
		}
	}
	return nil
}

func weightAt(a []float64, i int) float64 {
	if a == nil {
		return 1
	}
	return a[i]
}

// PlanWeighted implements WeightedPlanner: the identity strategy's single
// group carries weight Σ_i a_i per row (every base cell feeds one cell of
// every queried marginal).
func (s Identity) PlanWeighted(w *marginal.Workload, a []float64) (*Plan, error) {
	if err := checkWeights(w, a); err != nil {
		return nil, err
	}
	plan, err := s.Plan(w)
	if err != nil {
		return nil, err
	}
	if a != nil {
		total := 0.0
		for _, v := range a {
			total += v
		}
		plan.Specs[0].RowWeight = total
	}
	return plan, nil
}

// PlanWeighted implements WeightedPlanner: each marginal's group carries
// its own importance weight (R = I, so w_row = a_i).
func (s Workload) PlanWeighted(w *marginal.Workload, a []float64) (*Plan, error) {
	if err := checkWeights(w, a); err != nil {
		return nil, err
	}
	plan, err := s.Plan(w)
	if err != nil {
		return nil, err
	}
	for i := range plan.Specs {
		plan.Specs[i].RowWeight = weightAt(a, i)
	}
	return plan, nil
}

// PlanWeighted implements WeightedPlanner: coefficient β carries
// w_β = Σ_{i: β⪯α_i} a_i·2^{d−‖α_i‖}.
func (s Fourier) PlanWeighted(w *marginal.Workload, a []float64) (*Plan, error) {
	if err := checkWeights(w, a); err != nil {
		return nil, err
	}
	return planFourier(w, a), nil
}

// PlanWeighted implements WeightedPlanner: a material marginal's rows carry
// the summed importance of the queries its cluster answers. The clustering
// search itself stays weight-agnostic (as in [6]); only the budgeting
// weights change.
func (s Cluster) PlanWeighted(w *marginal.Workload, a []float64) (*Plan, error) {
	return s.PlanParallel(w, a, 1)
}

// Compile-time interface checks.
var (
	_ WeightedPlanner = Identity{}
	_ WeightedPlanner = Workload{}
	_ WeightedPlanner = Fourier{}
	_ ParallelPlanner = Cluster{}
)

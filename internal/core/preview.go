package core

import (
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/strategy"
)

// Forecast is the analytic error profile of a mechanism configuration,
// computed without touching any data (the noise distribution of every
// strategy here is data-independent). Data owners can compare strategies
// and budgets — the "clear tradeoffs between running time and accuracy"
// the paper offers — before spending any privacy budget.
type Forecast struct {
	StrategyName string
	// GroupBudgets are the per-group ε_i Step 2 would choose.
	GroupBudgets []float64
	// CellStdDev[i] is the per-cell noise standard deviation of marginal i.
	CellStdDev []float64
	// ExpectedAbsError[i] ≈ E‖Cα_i·x − C̃α_i‖₁ per marginal.
	ExpectedAbsError []float64
	// TotalVariance is the Step-2 objective Σ cells·Var.
	TotalVariance float64
}

// Preview computes the forecast for a configuration. It runs Steps 1–2 and
// the variance accounting of Step 3 but never draws noise or reads data.
func Preview(w *marginal.Workload, cfg engine.Config) (*Forecast, error) {
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("core: no strategy configured")
	}
	if err := cfg.Privacy.Validate(); err != nil {
		return nil, err
	}
	var (
		plan *strategy.Plan
		err  error
	)
	if cfg.QueryWeights != nil {
		wp, ok := cfg.Strategy.(strategy.WeightedPlanner)
		if !ok {
			return nil, fmt.Errorf("core: strategy %s does not support query weights", cfg.Strategy.Name())
		}
		plan, err = wp.PlanWeighted(w, cfg.QueryWeights)
	} else {
		plan, err = cfg.Strategy.Plan(w)
	}
	if err != nil {
		return nil, err
	}
	var alloc *budget.SpecAllocation
	if cfg.Budgeting == engine.OptimalBudget {
		alloc, err = budget.OptimalSpecs(plan.Specs, cfg.Privacy)
	} else {
		alloc, err = budget.UniformSpecs(plan.Specs, cfg.Privacy)
	}
	if err != nil {
		return nil, err
	}
	groupVar := budget.SpecVariances(alloc.Eta, cfg.Privacy)
	// The variance accounting needs only zeros as data: Recover's cellVar
	// output is data-independent for every strategy here.
	zeros := make([]float64, plan.Rows())
	_, cellVar, err := plan.RecoverDense(zeros, groupVar)
	if err != nil {
		return nil, err
	}
	f := &Forecast{
		StrategyName:     plan.Strategy,
		GroupBudgets:     alloc.Eta,
		CellStdDev:       make([]float64, len(cellVar)),
		ExpectedAbsError: ExpectedAbsError(w, cellVar),
		TotalVariance:    engine.TotalCellVariance(w, cellVar),
	}
	for i, v := range cellVar {
		f.CellStdDev[i] = math.Sqrt(v)
	}
	return f, nil
}

// CompareStrategies previews several configurations side by side, sorted as
// given; a convenience for CLI/report code.
func CompareStrategies(w *marginal.Workload, cfgs []engine.Config) ([]*Forecast, error) {
	out := make([]*Forecast, len(cfgs))
	for i, cfg := range cfgs {
		f, err := Preview(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: previewing %d: %w", i, err)
		}
		out[i] = f
	}
	return out, nil
}

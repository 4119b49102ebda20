package engine_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/recovery"
	"repro/internal/strategy"
)

// The dense GLS oracle: for small domains every linear map of a release is
// built explicitly and checked against the paper's recovery of
// Section 3.2, R = Q(SᵀΣ⁻¹S)⁻¹SᵀΣ⁻¹ (equation (7)), computed by
// internal/recovery. Bit-identity tests prove the parallel paths equal the
// serial one; this proves the serial one right.

// chainWorkload is five 2-way marginals over 6 attributes: greedy
// clustering merges some of them but not all, so cluster recovery fuses
// across some marginals only.
func chainWorkload() *marginal.Workload {
	return marginal.MustWorkload(6, []bits.Mask{0b000011, 0b000110, 0b001100, 0b011000, 0b110000})
}

// oracleWorkloads are the d ≤ 6 workloads the oracle covers. The mixed
// workload's marginals differ in order, so optimal budgeting gives them
// different cell variances and the consistency weights matter.
func oracleWorkloads() []struct {
	name string
	w    *marginal.Workload
} {
	return []struct {
		name string
		w    *marginal.Workload
	}{
		{"all-1way-d6", marginal.AllKWay(6, 1)},
		{"all-2way-d6", marginal.AllKWay(6, 2)},
		{"all-3way-d4", marginal.AllKWay(4, 3)},
		{"chain-2way-d6", chainWorkload()},
		{"mixed-d6", marginal.MustWorkload(6, []bits.Mask{0b000001, 0b000011, 0b001110, 0b110000})},
	}
}

var oracleStrategies = []strategy.Strategy{
	strategy.Fourier{}, strategy.Workload{}, strategy.Cluster{}, strategy.Identity{},
}

// denseRelease is one planned release written out as matrices.
type denseRelease struct {
	plan *strategy.Plan
	q    [][]float64 // the workload: K released cells × N domain cells
	s    [][]float64 // the strategy: m rows × N, column j = plan.Answers(e_j)
	// rowVar is Σ: the noise variance of every strategy row, expanded from
	// the per-group variances of the engine's Allocate stage.
	rowVar  []float64
	rPlan   [][]float64 // K × m: the plan's recovery, column j = Recover(e_j)
	cellVar []float64   // the per-marginal cell variance the plan reports
	served  [][]float64 // K × m: the weighted-L2 projection of rPlan
}

// buildDense plans and budgets cfg through the engine's own stages and
// applies the plan's recovery and the Consister to every unit vector.
// Both are linear in the noisy answers, so the images of the unit vectors
// are the columns of their matrices.
func buildDense(t *testing.T, w *marginal.Workload, cfg engine.Config) *denseRelease {
	t.Helper()
	ctx := context.Background()
	plan, err := engine.Planner{Workers: 1}.Plan(ctx, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := engine.Allocator{}.Allocate(ctx, plan.Specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	groupVar := budget.SpecVariances(alloc.Eta, cfg.Privacy)

	n, m, k := 1<<uint(w.D), plan.Rows(), w.TotalCells()
	d := &denseRelease{plan: plan, q: w.Rows(), s: newRows(m, n), rPlan: newRows(k, m), served: newRows(k, m)}
	e := make([]float64, n)
	for j := range e {
		e[j] = 1
		for i, v := range plan.Answers(e) {
			d.s[i][j] = v
		}
		e[j] = 0
	}
	for g, sp := range plan.Specs {
		for r := 0; r < sp.Count; r++ {
			d.rowVar = append(d.rowVar, groupVar[g])
		}
	}
	z := make([]float64, m)
	for j := range z {
		z[j] = 1
		answers, cellVar, err := plan.Recover(z, groupVar)
		if err != nil {
			t.Fatal(err)
		}
		z[j] = 0
		if d.cellVar == nil {
			d.cellVar = cellVar
		}
		for i, v := range cellVar {
			if v != d.cellVar[i] {
				t.Fatalf("cell variance of marginal %d depends on the answers: %v vs %v", i, v, d.cellVar[i])
			}
		}
		served, _, err := engine.Consister{}.Consist(ctx, w, answers, cellVar, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range answers {
			d.rPlan[i][j] = answers[i]
			d.served[i][j] = served[i]
		}
	}
	return d
}

func newRows(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}

// cellVariances expands per-marginal cell variances to one per released
// cell.
func cellVariances(w *marginal.Workload, perMarginal []float64) []float64 {
	out := make([]float64, 0, w.TotalCells())
	for i, m := range w.Marginals {
		for c := 0; c < m.Cells(); c++ {
			out = append(out, perMarginal[i])
		}
	}
	return out
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(b), math.SmallestNonzeroFloat64)
}

func maxAbsDiff(a, b [][]float64) float64 {
	mx := 0.0
	for i := range a {
		for j := range a[i] {
			mx = math.Max(mx, math.Abs(a[i][j]-b[i][j]))
		}
	}
	return mx
}

func oracleConfig(s strategy.Strategy, b engine.Budgeting) engine.Config {
	return engine.Config{
		Strategy: s, Budgeting: b, Consistency: engine.WeightedL2Consistency,
		Privacy: noise.Params{Type: noise.PureDP, Epsilon: 1, Neighbor: noise.AddRemove},
	}
}

// TestGLSOracle checks, for every strategy × budgeting × workload:
//
//	(a) the plan's recovery is a left inverse on the workload: R_plan·S = Q;
//	(b) the cell variance it reports is diag(R_plan Σ R_planᵀ) on every cell;
//	(c) for Fourier, Workload and Identity the served release (recovery then
//	    weighted-L2 consistency) is the GLS recovery R of equation (7);
//	(d) for Cluster, whose per-marginal weights cannot see the correlation
//	    between marginals recovered from one cluster, the served total
//	    variance is at least GLS's (Gauss–Markov).
func TestGLSOracle(t *testing.T) {
	for _, wc := range oracleWorkloads() {
		for _, s := range oracleStrategies {
			for _, b := range []engine.Budgeting{engine.UniformBudget, engine.OptimalBudget} {
				t.Run(fmt.Sprintf("%s/%s/%v", wc.name, s.Name(), b), func(t *testing.T) {
					w := wc.w
					d := buildDense(t, w, oracleConfig(s, b))
					if err := recovery.VerifyDecomposition(d.q, d.rPlan, d.s, 1e-12); err != nil {
						t.Fatalf("(a) R_plan·S = Q: %v", err)
					}
					diag := recovery.QueryVariances(d.rPlan, d.rowVar)
					for c, want := range cellVariances(w, d.cellVar) {
						if relDiff(diag[c], want) > 1e-12 {
							t.Fatalf("(b) cell %d: reported variance %v, diag(R Σ Rᵀ) = %v", c, want, diag[c])
						}
					}
					gls, err := recovery.Matrix(d.q, d.s, d.rowVar)
					if err != nil {
						t.Fatal(err)
					}
					if s.Name() != "C" {
						if diff := maxAbsDiff(d.served, gls); diff > 1e-8 {
							t.Fatalf("(c) served recovery differs from GLS by %v", diff)
						}
						return
					}
					served := recovery.TotalVariance(d.served, d.rowVar, nil)
					opt := recovery.TotalVariance(gls, d.rowVar, nil)
					if served < opt*(1-1e-9) {
						t.Fatalf("(d) served total variance %v below the GLS optimum %v", served, opt)
					}
					t.Logf("%d clusters for %d marginals: served/GLS total variance = %.4f",
						len(d.plan.Specs), len(w.Marginals), served/opt)
				})
			}
		}
	}
}

// TestGLSOracleChainMergesPartly guards the oracle's coverage: greedy
// clustering must merge the chain workload into more than one cluster but
// fewer than one per marginal, or (d) stops testing partial fusion.
func TestGLSOracleChainMergesPartly(t *testing.T) {
	w := chainWorkload()
	for _, b := range []engine.Budgeting{engine.UniformBudget, engine.OptimalBudget} {
		plan, err := engine.Planner{Workers: 1}.Plan(context.Background(), w, oracleConfig(strategy.Cluster{}, b))
		if err != nil {
			t.Fatal(err)
		}
		if g := len(plan.Specs); g <= 1 || g >= len(w.Marginals) {
			t.Fatalf("%v: %d clusters for %d marginals, want a partial merge", b, g, len(w.Marginals))
		}
	}
}

// TestPreviewMatchesGLSOracle pins core.Preview, which plans and budgets on
// its own, to the oracle's diag(R_plan Σ R_planᵀ) built from the engine's
// Planner and Allocate stages: the forecast must be the release's variance.
// Non-uniform query weights change both the plan and the budgets.
func TestPreviewMatchesGLSOracle(t *testing.T) {
	check := func(t *testing.T, w *marginal.Workload, cfg engine.Config) {
		t.Helper()
		d := buildDense(t, w, cfg)
		f, err := core.Preview(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		diag := recovery.QueryVariances(d.rPlan, d.rowVar)
		total := 0.0
		c := 0
		for i, m := range w.Marginals {
			forecast := f.CellStdDev[i] * f.CellStdDev[i]
			for j := 0; j < m.Cells(); j++ {
				if relDiff(forecast, diag[c]) > 1e-12 {
					t.Fatalf("marginal %d cell %d: forecast variance %v, oracle %v", i, j, forecast, diag[c])
				}
				total += diag[c]
				c++
			}
		}
		if relDiff(f.TotalVariance, total) > 1e-12 {
			t.Fatalf("forecast total variance %v, oracle %v", f.TotalVariance, total)
		}
	}
	for _, wc := range oracleWorkloads() {
		for _, s := range oracleStrategies {
			for _, b := range []engine.Budgeting{engine.UniformBudget, engine.OptimalBudget} {
				t.Run(fmt.Sprintf("%s/%s/%v", wc.name, s.Name(), b), func(t *testing.T) {
					check(t, wc.w, oracleConfig(s, b))
				})
			}
		}
		for _, s := range []strategy.Strategy{strategy.Fourier{}, strategy.Workload{}, strategy.Cluster{}} {
			t.Run(fmt.Sprintf("%s/%s/weighted", wc.name, s.Name()), func(t *testing.T) {
				cfg := oracleConfig(s, engine.OptimalBudget)
				cfg.QueryWeights = make([]float64, len(wc.w.Marginals))
				for i := range cfg.QueryWeights {
					cfg.QueryWeights[i] = float64(1 + i%3)
				}
				check(t, wc.w, cfg)
			})
		}
	}
}

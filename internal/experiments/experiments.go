// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the accuracy sweeps of Figures 4 and 5 (relative
// error vs ε for the strategies I, Q, Q+, F, F+, C, C+ over the workloads
// Q1, Q1*, Q1a, Q2, Q2*, Q2a on Adult- and NLTCS-like data), the running
// time comparison of Figure 6, the error-bound table (Table 1) and the
// Section 1 worked example. cmd/experiments is the CLI front end;
// bench_test.go at the repository root exposes each experiment as a
// testing.B benchmark.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/bits"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/recovery"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// Method is one labelled mechanism configuration (strategy + budgeting).
type Method struct {
	Label     string
	Strategy  strategy.Strategy
	Budgeting engine.Budgeting
}

// Methods returns the seven mechanisms of Figures 4 and 5. The clustering
// methods are optional because their planning cost is orders of magnitude
// above the rest (Figure 6), which some sweeps want to skip.
func Methods(includeCluster bool) []Method {
	ms := []Method{
		{Label: "I", Strategy: strategy.Identity{}, Budgeting: engine.UniformBudget},
		{Label: "Q", Strategy: strategy.Workload{}, Budgeting: engine.UniformBudget},
		{Label: "Q+", Strategy: strategy.Workload{}, Budgeting: engine.OptimalBudget},
		{Label: "F", Strategy: strategy.Fourier{}, Budgeting: engine.UniformBudget},
		{Label: "F+", Strategy: strategy.Fourier{}, Budgeting: engine.OptimalBudget},
	}
	if includeCluster {
		ms = append(ms,
			Method{Label: "C", Strategy: strategy.Cluster{}, Budgeting: engine.UniformBudget},
			Method{Label: "C+", Strategy: strategy.Cluster{}, Budgeting: engine.OptimalBudget},
		)
	}
	return ms
}

// WorkloadSet maps the paper's workload names to workloads.
type WorkloadSet struct {
	Names  []string
	ByName map[string]*marginal.Workload
}

// SchemaWorkloads builds the six Section-5 workloads over a schema: Q1,
// Q1*, Q1a, Q2, Q2*, Q2a (anchored at attribute 0).
func SchemaWorkloads(s *dataset.Schema) *WorkloadSet {
	ws := &WorkloadSet{ByName: map[string]*marginal.Workload{}}
	add := func(name string, w *marginal.Workload) {
		ws.Names = append(ws.Names, name)
		ws.ByName[name] = w
	}
	add("Q1", marginal.SchemaKWay(s, 1))
	add("Q1*", marginal.SchemaKWayStar(s, 1))
	add("Q1a", marginal.SchemaKWayAnchored(s, 1, 0))
	add("Q2", marginal.SchemaKWay(s, 2))
	add("Q2*", marginal.SchemaKWayStar(s, 2))
	add("Q2a", marginal.SchemaKWayAnchored(s, 2, 0))
	return ws
}

// DefaultEpsilons is the ε grid of Figures 4 and 5.
func DefaultEpsilons() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// Point is one accuracy measurement.
type Point struct {
	Dataset  string
	Workload string
	Method   string
	Epsilon  float64
	RelError float64
}

// AccuracySweep measures the mean relative error of each method on one
// workload over the ε grid under pure ε-DP, averaged over trials. All
// methods share the same consistency post-processing (weighted L2, as
// Section 5 applies the Fourier consistency step throughout).
func AccuracySweep(ctx context.Context, datasetName, workloadName string, w *marginal.Workload, x []float64,
	methods []Method, epsilons []float64, trials int, seed int64) ([]Point, error) {
	base := noise.Params{Type: noise.PureDP, Neighbor: noise.AddRemove}
	return AccuracySweepParams(ctx, datasetName, workloadName, w, x, methods, base, epsilons, trials, seed)
}

// AccuracySweepParams is AccuracySweep for an arbitrary privacy regime: the
// base parameters fix the noise type, δ and neighbour model while ε runs
// over the grid. The paper reports that (ε,δ) results "are similar, and are
// omitted"; this entry point (and the tests exercising it) make that claim
// checkable.
//
// The (method, ε) cells are independent mechanism runs, so they execute on
// a bounded worker pool; seeds are assigned per cell, keeping the output
// deterministic regardless of scheduling.
func AccuracySweepParams(ctx context.Context, datasetName, workloadName string, w *marginal.Workload, x []float64,
	methods []Method, base noise.Params, epsilons []float64, trials int, seed int64) ([]Point, error) {
	truth := w.EvalSinglePass(x)
	type cell struct{ mi, ei int }
	cells := make([]cell, 0, len(methods)*len(epsilons))
	for mi := range methods {
		for ei := range epsilons {
			cells = append(cells, cell{mi, ei})
		}
	}
	out := make([]Point, len(cells))
	errs := make([]error, len(cells))

	// One engine for the whole sweep: cells already saturate the CPU, so
	// each run stays serial (Workers: 1), but the shared plan cache lets
	// every trial and every ε of a method reuse one Step-1 plan (plans are
	// privacy-independent) — the decisive amortisation for the cluster
	// strategy's expensive search.
	eng := engine.New(engine.Options{Workers: 1, Cache: engine.NewPlanCache(0)})

	workers := runtime.GOMAXPROCS(0)
	if workers > len(cells) {
		workers = len(cells)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				c := cells[ci]
				m, eps := methods[c.mi], epsilons[c.ei]
				p := base
				p.Epsilon = eps
				total := 0.0
				for tr := 0; tr < trials; tr++ {
					rel, err := eng.RunVector(ctx, w, vector.FromDense(x), engine.Config{
						Strategy:    m.Strategy,
						Budgeting:   m.Budgeting,
						Consistency: engine.WeightedL2Consistency,
						Privacy:     p,
						Seed:        seed + int64(tr)*7919,
					})
					if err != nil {
						errs[ci] = fmt.Errorf("experiments: %s/%s ε=%v: %w", m.Label, workloadName, eps, err)
						return
					}
					total += marginal.RelativeError(truth, rel.Answers)
				}
				out[ci] = Point{
					Dataset: datasetName, Workload: workloadName, Method: m.Label,
					Epsilon: eps, RelError: total / float64(trials),
				}
			}
		}()
	}
	for ci := range cells {
		next <- ci
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WritePointsCSV emits points as CSV with a header.
func WritePointsCSV(w io.Writer, points []Point) error {
	if _, err := fmt.Fprintln(w, "dataset,workload,method,epsilon,relative_error"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%.3f,%.6g\n", p.Dataset, p.Workload, p.Method, p.Epsilon, p.RelError); err != nil {
			return err
		}
	}
	return nil
}

// TimePoint is one running-time measurement (Figure 6).
type TimePoint struct {
	Dataset  string
	Workload string
	Method   string
	Seconds  float64
}

// TimingSweep measures the end-to-end wall-clock time of each method on
// each workload (one run each, ε = 1, matching Figure 6's setup where time
// is independent of ε).
func TimingSweep(ctx context.Context, datasetName string, ws *WorkloadSet, x []float64, methods []Method, seed int64) ([]TimePoint, error) {
	var out []TimePoint
	for _, name := range ws.Names {
		w := ws.ByName[name]
		for _, m := range methods {
			start := time.Now()
			_, err := engine.New(engine.Options{Workers: 1}).RunVector(ctx, w, vector.FromDense(x), engine.Config{
				Strategy:    m.Strategy,
				Budgeting:   m.Budgeting,
				Consistency: engine.WeightedL2Consistency,
				Privacy:     noise.Params{Type: noise.PureDP, Epsilon: 1, Neighbor: noise.AddRemove},
				Seed:        seed,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: timing %s/%s: %w", m.Label, name, err)
			}
			out = append(out, TimePoint{
				Dataset: datasetName, Workload: name, Method: m.Label,
				Seconds: time.Since(start).Seconds(),
			})
		}
	}
	return out, nil
}

// WriteTimesCSV emits timing rows as CSV.
func WriteTimesCSV(w io.Writer, points []TimePoint) error {
	if _, err := fmt.Fprintln(w, "dataset,workload,method,seconds"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%.6f\n", p.Dataset, p.Workload, p.Method, p.Seconds); err != nil {
			return err
		}
	}
	return nil
}

// BoundRow is one Table-1 comparison row: the four strategy bounds and the
// lower bound at (d, k), together with measured expected L1 noise per
// marginal for the implementable strategies.
type BoundRow struct {
	D, K int
	// Analytic Table-1 formulas (no hidden constants).
	Base, Marginals, FourierUniform, FourierNonUniform, Lower float64
	// Measured expected L1 noise per marginal (mean over marginals/trials).
	MeasuredBase, MeasuredMarginals, MeasuredFourierUniform, MeasuredFourierNonUniform float64
}

// Table1Rows evaluates the bounds and measures the actual mechanisms on the
// all-k-way workload over synthetic binary data.
func Table1Rows(ctx context.Context, ds, ks []int, p noise.Params, trials int, seed int64) ([]BoundRow, error) {
	var rows []BoundRow
	// Plans depend on (d, k, strategy) only, so a shared cache amortises
	// Step 1 across trials and across the uniform/optimal Fourier variants.
	eng := engine.New(engine.Options{Workers: 1, Cache: engine.NewPlanCache(0)})
	for _, d := range ds {
		for _, k := range ks {
			if k >= d {
				continue
			}
			w := marginal.AllKWay(d, k)
			tab := dataset.SyntheticBinary(seed, d, 4000)
			x, err := tab.Vector()
			if err != nil {
				return nil, err
			}
			row := BoundRow{
				D: d, K: k,
				Base:              core.BoundBaseCounts(d, k, p),
				Marginals:         core.BoundMarginals(d, k, p),
				FourierUniform:    core.BoundFourierUniform(d, k, p),
				FourierNonUniform: core.BoundFourierNonUniform(d, k, p),
				Lower:             core.BoundLower(d, k, p),
			}
			measure := func(s strategy.Strategy, b engine.Budgeting) (float64, error) {
				truth := w.EvalSinglePass(x)
				offsets := w.Offsets()
				total := 0.0
				for tr := 0; tr < trials; tr++ {
					rel, err := eng.RunVector(ctx, w, vector.FromDense(x), engine.Config{
						Strategy: s, Budgeting: b, Privacy: p,
						Seed: seed + int64(tr)*104729,
					})
					if err != nil {
						return 0, err
					}
					perMarginal := 0.0
					for mi, m := range w.Marginals {
						l1 := 0.0
						for c := 0; c < m.Cells(); c++ {
							dd := rel.Answers[offsets[mi]+c] - truth[offsets[mi]+c]
							if dd < 0 {
								dd = -dd
							}
							l1 += dd
						}
						perMarginal += l1
					}
					total += perMarginal / float64(len(w.Marginals))
				}
				return total / float64(trials), nil
			}
			if row.MeasuredBase, err = measure(strategy.Identity{}, engine.UniformBudget); err != nil {
				return nil, err
			}
			if row.MeasuredMarginals, err = measure(strategy.Workload{}, engine.UniformBudget); err != nil {
				return nil, err
			}
			if row.MeasuredFourierUniform, err = measure(strategy.Fourier{}, engine.UniformBudget); err != nil {
				return nil, err
			}
			if row.MeasuredFourierNonUniform, err = measure(strategy.Fourier{}, engine.OptimalBudget); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WriteBoundsCSV emits Table-1 rows as CSV.
func WriteBoundsCSV(w io.Writer, rows []BoundRow) error {
	if _, err := fmt.Fprintln(w, "d,k,bound_base,bound_marginals,bound_fourier_uniform,bound_fourier_nonuniform,bound_lower,meas_base,meas_marginals,meas_fourier_uniform,meas_fourier_nonuniform"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g\n",
			r.D, r.K, r.Base, r.Marginals, r.FourierUniform, r.FourierNonUniform, r.Lower,
			r.MeasuredBase, r.MeasuredMarginals, r.MeasuredFourierUniform, r.MeasuredFourierNonUniform); err != nil {
			return err
		}
	}
	return nil
}

// IntroExample reproduces the Section 1 worked example (Figure 1: Q is the
// marginal on A plus the marginal on A,B over three binary attributes) and
// returns the three total-variance figures (×ε²): uniform budgeting (48),
// optimal budgets with the fixed recovery R = I (46.17) and optimal budgets
// with the GLS recovery of Step 3 (≤ the paper's hand-crafted 34.6).
func IntroExample() (uniform, nonUniform, gls float64, err error) {
	w := marginal.MustWorkload(3, []bits.Mask{0b100, 0b110})
	q := w.Rows()
	s := q // S = Q
	p := noise.Params{Type: noise.PureDP, Epsilon: 1, Neighbor: noise.AddRemove}
	weights := make([]float64, len(s)) // R = I ⇒ w_i = 1
	for i := range weights {
		weights[i] = 1
	}
	g, err := budget.FindGrouping(s)
	if err != nil {
		return 0, 0, 0, err
	}
	uni, err := budget.Uniform(g, weights, p)
	if err != nil {
		return 0, 0, 0, err
	}
	opt, err := budget.Optimal(g, weights, p)
	if err != nil {
		return 0, 0, 0, err
	}
	variances := make([]float64, len(opt.PerRow))
	for i, e := range opt.PerRow {
		variances[i] = p.RowVariance(e)
	}
	r, err := recovery.Matrix(q, s, variances)
	if err != nil {
		return 0, 0, 0, err
	}
	return uni.Objective, opt.Objective, recovery.TotalVariance(r, variances, nil), nil
}

// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md, "Experiment index"). Each benchmark runs a reduced but
// structurally faithful configuration so the whole suite finishes in
// minutes; cmd/experiments reproduces the paper-scale versions (full 23-bit
// Adult domain, full ε grid, all workloads) and EXPERIMENTS.md records a
// complete run.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/budget"
	"repro/internal/consistency"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/rangequery"
	"repro/internal/recovery"
	"repro/internal/strategy"
	"repro/internal/vector"

	"repro/internal/bits"
)

func pureParams(eps float64) noise.Params {
	return noise.Params{Type: noise.PureDP, Epsilon: eps, Neighbor: noise.AddRemove}
}

// reducedAdult is a bench-scale stand-in for the 23-bit Adult domain: the
// same eight attributes with cardinalities trimmed to land on a 14-bit
// domain, preserving the mixed-cardinality structure of Figure 4.
func reducedAdult(tuples int) *dataset.Table {
	s := dataset.MustSchema([]dataset.Attribute{
		{Name: "workclass", Cardinality: 4},
		{Name: "education", Cardinality: 8},
		{Name: "marital-status", Cardinality: 4},
		{Name: "occupation", Cardinality: 8},
		{Name: "relationship", Cardinality: 4},
		{Name: "race", Cardinality: 4},
		{Name: "sex", Cardinality: 2},
		{Name: "salary", Cardinality: 2},
	})
	rows := make([][]int, tuples)
	for i := range rows {
		rows[i] = []int{
			i % 4, (i * 7) % 8, (i / 4) % 4, (i * 3) % 8,
			(i / 16) % 4, (i * 5) % 4, i % 2, (i / 2) % 2,
		}
	}
	return &dataset.Table{Schema: s, Rows: rows}
}

// runDense releases a dense contingency vector serially through the
// engine's one entry, RunVector.
func runDense(w *marginal.Workload, x []float64, cfg engine.Config) (*engine.Release, error) {
	return engine.New(engine.Options{Workers: 1}).RunVector(context.Background(), w, vector.FromDense(x), cfg)
}

func vectorOf(b *testing.B, t *dataset.Table) []float64 {
	b.Helper()
	x, err := t.Vector()
	if err != nil {
		b.Fatal(err)
	}
	return x
}

// accuracyBench runs one (dataset, workload) accuracy sweep per iteration:
// all seven methods at one ε, one trial — the unit of work behind each
// panel of Figures 4 and 5.
func accuracyBench(b *testing.B, name string, tab *dataset.Table, workload string, cluster bool) {
	b.Helper()
	x := vectorOf(b, tab)
	ws := experiments.SchemaWorkloads(tab.Schema)
	w := ws.ByName[workload]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AccuracySweep(context.Background(), name, workload, w, x,
			experiments.Methods(cluster), []float64{0.5}, 1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: Adult accuracy panels (reduced domain; full via cmd) ---

func BenchmarkFig4AdultQ1(b *testing.B) { accuracyBench(b, "adult", reducedAdult(32561), "Q1", true) }
func BenchmarkFig4AdultQ1Star(b *testing.B) {
	accuracyBench(b, "adult", reducedAdult(32561), "Q1*", true)
}
func BenchmarkFig4AdultQ1A(b *testing.B) { accuracyBench(b, "adult", reducedAdult(32561), "Q1a", true) }
func BenchmarkFig4AdultQ2(b *testing.B)  { accuracyBench(b, "adult", reducedAdult(32561), "Q2", true) }
func BenchmarkFig4AdultQ2Star(b *testing.B) {
	accuracyBench(b, "adult", reducedAdult(32561), "Q2*", false)
}
func BenchmarkFig4AdultQ2A(b *testing.B) {
	accuracyBench(b, "adult", reducedAdult(32561), "Q2a", false)
}

// --- Figure 5: NLTCS accuracy panels (paper-scale d = 16 domain) ---

func nltcs() *dataset.Table { return dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount) }

func BenchmarkFig5NLTCSQ1(b *testing.B)     { accuracyBench(b, "nltcs", nltcs(), "Q1", true) }
func BenchmarkFig5NLTCSQ1Star(b *testing.B) { accuracyBench(b, "nltcs", nltcs(), "Q1*", true) }
func BenchmarkFig5NLTCSQ1A(b *testing.B)    { accuracyBench(b, "nltcs", nltcs(), "Q1a", true) }
func BenchmarkFig5NLTCSQ2(b *testing.B)     { accuracyBench(b, "nltcs", nltcs(), "Q2", false) }
func BenchmarkFig5NLTCSQ2Star(b *testing.B) { accuracyBench(b, "nltcs", nltcs(), "Q2*", false) }
func BenchmarkFig5NLTCSQ2A(b *testing.B)    { accuracyBench(b, "nltcs", nltcs(), "Q2a", false) }

// --- Figure 6: end-to-end running time per strategy over NLTCS ---

func timeBench(b *testing.B, s strategy.Strategy, budgeting engine.Budgeting, workload string) {
	b.Helper()
	tab := nltcs()
	x := vectorOf(b, tab)
	w := experiments.SchemaWorkloads(tab.Schema).ByName[workload]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runDense(w, x, engine.Config{
			Strategy: s, Budgeting: budgeting,
			Consistency: engine.WeightedL2Consistency,
			Privacy:     pureParams(1), Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6TimeNLTCSQ1Identity(b *testing.B) {
	timeBench(b, strategy.Identity{}, engine.UniformBudget, "Q1")
}
func BenchmarkFig6TimeNLTCSQ1Workload(b *testing.B) {
	timeBench(b, strategy.Workload{}, engine.OptimalBudget, "Q1")
}
func BenchmarkFig6TimeNLTCSQ1Fourier(b *testing.B) {
	timeBench(b, strategy.Fourier{}, engine.OptimalBudget, "Q1")
}
func BenchmarkFig6TimeNLTCSQ1Cluster(b *testing.B) {
	timeBench(b, strategy.Cluster{}, engine.OptimalBudget, "Q1")
}
func BenchmarkFig6TimeNLTCSQ2Fourier(b *testing.B) {
	timeBench(b, strategy.Fourier{}, engine.OptimalBudget, "Q2")
}
func BenchmarkFig6TimeNLTCSQ2Cluster(b *testing.B) {
	// The expensive clustering search of [6]: expect two to four orders of
	// magnitude above the Fourier run — the Figure 6 gap.
	timeBench(b, strategy.Cluster{}, engine.OptimalBudget, "Q2")
}

// --- Table 1: error bounds vs measured noise ---

func BenchmarkTable1Bounds(b *testing.B) {
	p := pureParams(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1Rows(context.Background(), []int{10, 12}, []int{1, 2}, p, 1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 1 worked example ---

func BenchmarkIntroExample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uniform, nonUniform, gls, err := experiments.IntroExample()
		if err != nil {
			b.Fatal(err)
		}
		if !(gls < nonUniform && nonUniform < uniform) {
			b.Fatalf("worked-example ordering broken: %v %v %v", gls, nonUniform, uniform)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationBudgeting compares the three budgeting paths on the
// intro strategy: uniform, closed-form optimal, and the general KKT solver.
func BenchmarkAblationBudgeting(b *testing.B) {
	w := marginal.MustWorkload(3, []bits.Mask{0b100, 0b110})
	rows := w.Rows()
	weights := make([]float64, len(rows))
	for i := range weights {
		weights[i] = 1
	}
	g, err := budget.FindGrouping(rows)
	if err != nil {
		b.Fatal(err)
	}
	p := pureParams(1)
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := budget.Uniform(g, weights, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimal-closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := budget.Optimal(g, weights, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("general-kkt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := budget.General(rows, weights, p, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRecovery compares keeping the initial recovery against
// recomputing it by GLS (Step 3) on the intro example.
func BenchmarkAblationRecovery(b *testing.B) {
	w := marginal.MustWorkload(3, []bits.Mask{0b100, 0b110})
	q := w.Rows()
	variances := []float64{10.125, 10.125, 6.48, 6.48, 6.48, 6.48} // intro budgets
	b.Run("fixed-R", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			total := 0.0
			for _, v := range variances {
				total += v
			}
			if total < 40 {
				b.Fatal("unexpected")
			}
		}
	})
	b.Run("gls-R", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := recovery.Matrix(q, q, variances)
			if err != nil {
				b.Fatal(err)
			}
			if tv := recovery.TotalVariance(r, variances, nil); tv > 34.62 {
				b.Fatalf("GLS variance %v regressed above the paper's 34.6", tv)
			}
		}
	})
}

// BenchmarkAblationConsistency compares the consistency modes on one noisy
// NLTCS Q1* release.
func BenchmarkAblationConsistency(b *testing.B) {
	tab := dataset.SyntheticBinary(5, 10, 4000)
	x, err := tab.Vector()
	if err != nil {
		b.Fatal(err)
	}
	w := experiments.SchemaWorkloads(tab.Schema).ByName["Q1*"]
	rel, err := runDense(w, x, engine.Config{
		Strategy: strategy.Workload{}, Budgeting: engine.OptimalBudget,
		Privacy: pureParams(0.5), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	noisy := rel.Answers
	b.Run("none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = noisy
		}
	})
	b.Run("L2-closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := consistency.L2(w, noisy); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("L1-lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := consistency.L1(w, noisy); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSinglePassEval quantifies the single-pass marginal
// evaluation against per-marginal passes (the data-handling cost dominating
// Figure 6's fast strategies).
func BenchmarkAblationSinglePassEval(b *testing.B) {
	tab := nltcs()
	x := vectorOf(b, tab)
	w := marginal.SchemaKWay(tab.Schema, 2)
	b.Run("per-marginal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = w.Eval(x)
		}
	})
	b.Run("single-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = w.EvalSinglePass(x)
		}
	})
}

// BenchmarkAblationRangeStrategies compares the range-query strategies
// (internal/rangequery) under uniform and optimal per-level budgets — the
// [4]/[14]/[23] setting the paper generalises.
func BenchmarkAblationRangeStrategies(b *testing.B) {
	n := 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 17)
	}
	// A sampled workload keeps the wavelet's per-query indicator transforms
	// affordable; AllRanges(n) would carry Θ(n²) queries.
	ivs := make([]rangequery.Interval, 0, 2000)
	for i := 0; i < 2000; i++ {
		lo := (i * 131) % n
		hi := lo + 1 + (i*37)%(n-lo)
		ivs = append(ivs, rangequery.Interval{Lo: lo, Hi: hi})
	}
	w, err := rangequery.NewWorkload(n, ivs)
	if err != nil {
		b.Fatal(err)
	}
	p := pureParams(1)
	for _, m := range []rangequery.Method{rangequery.Flat, rangequery.Hierarchy, rangequery.Wavelet} {
		for _, budgets := range []string{"uniform", "optimal"} {
			b.Run(m.String()+"-"+budgets, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := rangequery.Run(context.Background(), w, x, m, budgets, p, int64(i), 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Engine: serial vs parallel release, plan-cache hit vs miss ---
//
// The staged engine's determinism contract (internal/engine) means the
// serial and parallel releases below compute identical outputs; the
// benchmarks measure the wall-clock gap. The identity strategy on a 16-
// attribute cube makes measurement (2^16 noise draws) and per-marginal
// recovery (120 marginals × 2^16 accumulations) the dominant stages — the
// shape a serving deployment sees on wide schemas. The parallel variant
// sizes its pool to GOMAXPROCS, so the gap over serial scales with the
// machine's core count (on a single-core box the two paths coincide).

func engineReleaseBench(b *testing.B, workers int) {
	b.Helper()
	tab := dataset.SyntheticBinary(3, 16, 30000)
	x := vectorOf(b, tab)
	w := marginal.SchemaKWay(tab.Schema, 2)
	eng := engine.New(engine.Options{Workers: workers})
	cfg := engine.Config{
		Strategy: strategy.Identity{}, Budgeting: engine.UniformBudget,
		Consistency: engine.NoConsistency, Privacy: pureParams(1),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := eng.RunVector(context.Background(), w, vector.FromDense(x), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineReleaseD16Q2Serial(b *testing.B)   { engineReleaseBench(b, 1) }
func BenchmarkEngineReleaseD16Q2Parallel(b *testing.B) { engineReleaseBench(b, 0) }

// Plan caching isolates Step 1 — for the cluster strategy the greedy search
// dominates the whole release (Figure 6), so a cache hit removes almost all
// of the cost. Miss rebuilds the plan every iteration (fresh cache); hit
// reuses one warm entry.

func planCacheBench(b *testing.B, warm bool) {
	b.Helper()
	tab := dataset.SyntheticBinary(4, 10, 4000)
	x := vectorOf(b, tab)
	w := marginal.SchemaKWay(tab.Schema, 2)
	cfg := engine.Config{
		Strategy: strategy.Cluster{}, Budgeting: engine.OptimalBudget,
		Consistency: engine.WeightedL2Consistency, Privacy: pureParams(1),
	}
	var eng *engine.Engine
	if warm {
		eng = engine.New(engine.Options{Workers: 1, Cache: engine.NewPlanCache(0)})
		if _, err := eng.RunVector(context.Background(), w, vector.FromDense(x), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			eng = engine.New(engine.Options{Workers: 1, Cache: engine.NewPlanCache(0)})
		}
		cfg.Seed = int64(i)
		if _, err := eng.RunVector(context.Background(), w, vector.FromDense(x), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCacheMissClusterD10Q2(b *testing.B) { planCacheBench(b, false) }
func BenchmarkPlanCacheHitClusterD10Q2(b *testing.B)  { planCacheBench(b, true) }

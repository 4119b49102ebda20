package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/consistency"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/par"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/vector"
)

// Budgeting selects the Step-2 allocation rule.
type Budgeting int

const (
	// UniformBudget reproduces prior work: every strategy group receives
	// the same per-row budget.
	UniformBudget Budgeting = iota
	// OptimalBudget is the paper's contribution: the closed-form non-uniform
	// allocation of Corollary 3.3 (the "+" variants F+, Q+, C+).
	OptimalBudget
)

func (b Budgeting) String() string {
	if b == OptimalBudget {
		return "optimal"
	}
	return "uniform"
}

// Consistency selects the post-processing of Section 3.3.
type Consistency int

const (
	// NoConsistency returns the raw recovered answers.
	NoConsistency Consistency = iota
	// WeightedL2Consistency projects onto consistent marginals in least
	// squares, weighting each marginal by its inverse cell variance. For
	// Identity and Fourier plans, whose recovered answers are already
	// consistent and whose recovery is the only one (S has full row rank),
	// and for Workload plans, which measure each marginal on its own so the
	// per-marginal weights are exactly Σ⁻¹, this is the GLS recovery of
	// Section 3.2, optimal among linear unbiased estimators. A Cluster plan
	// recovers several marginals from one clustered marginal: their errors
	// are correlated and per-marginal weights cannot see that, so the
	// projection is consistent and unbiased but not GLS. The dense oracle
	// in gls_oracle_test.go measures its total variance at 1.000–1.014× the
	// GLS optimum on d ≤ 6 workloads that greedy clustering merges only in
	// part, and at 1.063× on all 2-way marginals of 6 attributes.
	WeightedL2Consistency
)

func (c Consistency) String() string {
	if c == WeightedL2Consistency {
		return "weighted-L2"
	}
	return "none"
}

// Config assembles one mechanism run.
type Config struct {
	Strategy    strategy.Strategy
	Budgeting   Budgeting
	Consistency Consistency
	Privacy     noise.Params
	Seed        int64
	// QueryWeights optionally sets the paper's general objective aᵀ·Var(y)
	// (Section 2): QueryWeights[i] is the importance of marginal i in the
	// Step-2 budgeting. nil means a = 1.
	QueryWeights []float64
}

// Release is the output of one mechanism run.
type Release struct {
	// Answers is the concatenated noisy (and, if requested, consistent)
	// marginal tables in workload order.
	Answers []float64
	// CellVariances[i] is the analytic noise variance of each cell of
	// marginal i before the consistency step.
	CellVariances []float64
	// GroupBudgets are the per-group ε_i chosen by Step 2.
	GroupBudgets []float64
	// GroupVariances are the per-row noise variances implied by the budgets.
	GroupVariances []float64
	// TotalVariance is the analytic Σ_i Var(y_i) over all released cells
	// under the initial recovery (the paper's optimisation objective).
	TotalVariance float64
	// Coefficients holds the consistent Fourier coefficients when a
	// consistency pass ran (nil otherwise), aligned with the workload's
	// FourierSupport: Coefficients[c] is the coefficient of
	// FourierSupport()[c].
	Coefficients []float64
	// Elapsed is the wall-clock cost of the full run.
	Elapsed time.Duration
	// StrategyName is the short experiment-table name of the strategy.
	StrategyName string
}

// Options tunes the engine without changing what it computes: every option
// combination yields a bit-identical Release for the same Config.
type Options struct {
	// Workers is an upper bound on the goroutines any one stage uses (0
	// means runtime.GOMAXPROCS(0)); 1 forces fully serial execution. A stage
	// forks only when each worker gets at least par.Grain rows or cells of
	// work, so small releases run serially whatever the bound.
	Workers int
	// Cache, when non-nil, memoises Step-1 plans across runs (see PlanCache).
	Cache *PlanCache
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Engine executes the staged release pipeline.
type Engine struct {
	opts Options
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	return &Engine{opts: opts}
}

// Options returns the engine's options (workers resolved lazily).
func (e *Engine) Options() Options { return e.opts }

// RunVector executes the mechanism on contingency vector x for the workload
// — the engine's one entry point. The dataset store's blocked aggregate
// feeds the pipeline here without ever being gathered into one dense slice;
// callers holding a dense slice pass vector.FromDense(x), a zero-copy view.
// The release is a pure function of (w, cells of x, cfg): the blocking of
// x, the worker count and the plan cache never change a single bit of the
// output.
//
// Cancellation of ctx aborts the pipeline between stages and inside the
// measure and recover stages, so an abandoned request stops
// consuming CPU mid-run. A cancelled run returns ctx.Err() (possibly
// wrapped) and no release; cancellation never yields a partial Release.
func (e *Engine) RunVector(ctx context.Context, w *marginal.Workload, x *vector.Blocked, cfg Config) (*Release, error) {
	start := time.Now()
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("engine: no strategy configured")
	}
	if err := cfg.Privacy.Validate(); err != nil {
		return nil, err
	}
	if x.Len() != 1<<uint(w.D) {
		return nil, fmt.Errorf("engine: data vector has %d entries, domain needs %d", x.Len(), 1<<uint(w.D))
	}
	workers := e.opts.workers()
	tr := telemetry.TraceFrom(ctx)

	sp := tr.Root().StartStage("plan")
	pctx := ctx
	if sp != nil {
		pctx = telemetry.ContextWithSpan(ctx, sp)
	}
	plan, entry, err := Planner{Cache: e.opts.Cache, Workers: e.opts.Workers}.plan(pctx, w, cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	if entry != nil {
		// The plan was built for the entry's workload, which equals w (the
		// cache key holds D and the ordered masks) and already carries its
		// Fourier support and column index: recover and project against it
		// so an equal but fresh workload (a per-request lattice) derives
		// nothing.
		w = entry.w
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp = tr.Root().StartStage("allocate")
	alloc, err := Allocator{}.Allocate(ctx, plan.Specs, cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	groupVar := budget.SpecVariances(alloc.Eta, cfg.Privacy)

	sp = tr.Root().StartStage("measure")
	mctx := ctx
	if sp != nil {
		sp.AnnotateInt("workers", int64(workers))
		mctx = telemetry.ContextWithSpan(ctx, sp)
	}
	z, err := Measurer{cache: e.opts.Cache, entry: entry}.Measure(mctx, plan, x, alloc.Eta, cfg, workers)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Root().StartStage("recover")
	rctx := ctx
	if sp != nil {
		rctx = telemetry.ContextWithSpan(ctx, sp)
	}
	answers, cellVar, err := Recoverer{}.Recover(rctx, w, plan, z, groupVar, workers)
	sp.End()
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("engine: recovery: %w", err)
	}

	rel := &Release{
		Answers:        answers,
		CellVariances:  cellVar,
		GroupBudgets:   alloc.Eta,
		GroupVariances: groupVar,
		TotalVariance:  TotalCellVariance(w, cellVar),
		StrategyName:   plan.Strategy,
	}
	sp = tr.Root().StartStage("consist")
	consistent, coeffs, err := Consister{}.Consist(ctx, w, answers, cellVar, cfg, workers)
	sp.End()
	if err != nil {
		return nil, err
	}
	rel.Answers, rel.Coefficients = consistent, coeffs
	rel.Elapsed = time.Since(start)
	return rel, nil
}

// TotalCellVariance sums cellVar over all released cells.
func TotalCellVariance(w *marginal.Workload, cellVar []float64) float64 {
	total := 0.0
	for i, m := range w.Marginals {
		total += float64(m.Cells()) * cellVar[i]
	}
	return total
}

// ---------------------------------------------------------------------------
// Stage implementations. RunVector calls one value of each type per run.
// Every stage receives the run's context and returns promptly (ctx.Err
// wrapped or bare) once it is cancelled — the serving layer relies on an
// abandoned request not burning CPU through the remaining stages.

// Planner is the Step-1 stage: it plans through the strategy (weighted
// when QueryWeights are set, and across Workers when the strategy's search
// parallelises) and memoises the result in Cache when present.
type Planner struct {
	Cache *PlanCache
	// Workers bounds the planning search's worker pool for strategies
	// implementing strategy.ParallelPlanner (0 = all CPUs, 1 = serial).
	// Like the engine's other worker settings it never changes a single bit
	// of the plan — which is why it stays out of the plan-cache key.
	Workers int
}

// Plan produces the strategy plan for a workload. The cache lookup is
// free, so it happens even under a cancelled context; only a cache miss —
// the expensive Step-1 search — is gated on ctx.
func (p Planner) Plan(ctx context.Context, w *marginal.Workload, cfg Config) (*strategy.Plan, error) {
	plan, _, err := p.plan(ctx, w, cfg)
	return plan, err
}

// plan is Plan that also returns the plan's cache entry (nil without a
// cache), which carries the entry's answer memo to the measure stage.
func (p Planner) plan(ctx context.Context, w *marginal.Workload, cfg Config) (*strategy.Plan, *cacheEntry, error) {
	sp := telemetry.SpanFrom(ctx)
	if p.Cache != nil {
		key := planKey(w, cfg)
		if e, ok := p.Cache.get(key); ok {
			sp.Annotate("plan_cache", "hit")
			return e.plan, e, nil
		}
		sp.Annotate("plan_cache", "miss")
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		plan, err := p.planOnce(ctx, w, cfg)
		if err != nil {
			return nil, nil, err
		}
		return plan, p.Cache.put(key, w, plan), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	plan, err := p.planOnce(ctx, w, cfg)
	return plan, nil, err
}

// planOnce runs the Step-1 search itself, under a detail span so a cold
// plan's cost is visible in request traces.
func (p Planner) planOnce(ctx context.Context, w *marginal.Workload, cfg Config) (*strategy.Plan, error) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ssp := telemetry.SpanFrom(ctx).StartDetail("plan.search")
	defer ssp.End()
	var (
		plan *strategy.Plan
		err  error
	)
	switch s := cfg.Strategy.(type) {
	case strategy.ParallelPlanner:
		ssp.AnnotateInt("workers", int64(workers))
		plan, err = s.PlanParallel(w, cfg.QueryWeights, workers)
	default:
		plan, err = s.PlanWeighted(w, cfg.QueryWeights)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: planning strategy %s: %w", cfg.Strategy.Name(), err)
	}
	return plan, nil
}

// Allocator is the Step-2 stage: the closed-form budgets of
// Corollary 3.3 (optimal) or the uniform baseline, followed by the
// Proposition 3.1 privacy re-check.
type Allocator struct{}

// Allocate budgets the plan's group specs and rejects allocations that would
// break the privacy constraint. Budgeting is closed-form and cheap, so the
// context is not consulted.
func (Allocator) Allocate(_ context.Context, specs []budget.Spec, cfg Config) (*budget.SpecAllocation, error) {
	var (
		alloc *budget.SpecAllocation
		err   error
	)
	switch cfg.Budgeting {
	case OptimalBudget:
		alloc, err = budget.OptimalSpecs(specs, cfg.Privacy)
	default:
		alloc, err = budget.UniformSpecs(specs, cfg.Privacy)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: budgeting: %w", err)
	}
	for g, eta := range alloc.Eta {
		if eta <= 0 {
			return nil, fmt.Errorf("engine: group %d received no budget; strategy row unused by recovery", g)
		}
	}
	if err := verifyPrivacy(specs, alloc.Eta, cfg.Privacy); err != nil {
		return nil, err
	}
	return alloc, nil
}

// verifyPrivacy re-checks the Proposition 3.1 constraint at group
// granularity — an internal guard against budgeting bugs.
func verifyPrivacy(specs []budget.Spec, eta []float64, p noise.Params) error {
	epsEff := p.EffectiveEpsilon()
	var load float64
	if p.Type == noise.ApproxDP {
		for g, spec := range specs {
			load += spec.C * spec.C * eta[g] * eta[g]
		}
		load = math.Sqrt(load)
	} else {
		for g, spec := range specs {
			load += spec.C * eta[g]
		}
	}
	if load > epsEff*(1+1e-9) {
		return fmt.Errorf("engine: privacy constraint violated: load %v > %v", load, epsEff)
	}
	return nil
}

// Measurer is the measure stage, z = Sx + ν: exact strategy answers plus
// substream-seeded per-group noise, each split across workers once its
// work clears the grain (par.Workers). The answers are one dense slice:
// every strategy's TrueAnswers parallelises and bounds its scratch
// internally, and the noise pass perturbs it in the fixed noiseBlock row
// grid, so the release is bit-identical at every worker count.
//
// The exact answers S·x of a frozen input come from the plan's answer memo
// when it holds them (see PlanCache): the copy is bit-identical to
// recomputing, and the noise pass is unchanged, so a memo hit changes
// nothing but the time Measure takes.
type Measurer struct {
	cache *PlanCache
	entry *cacheEntry // plan's cache entry; nil without a cache
}

// Measure computes the noisy strategy answers.
func (m Measurer) Measure(ctx context.Context, plan *strategy.Plan, x *vector.Blocked, eta []float64, cfg Config, workers int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	z, hit := m.trueAnswers(plan, x, workers)
	source := "computed"
	if hit {
		source = "memo"
	}
	telemetry.SpanFrom(ctx).Annotate("answers", source)
	groups := make([]NoiseGroup, len(plan.Specs))
	start := 0
	for g, spec := range plan.Specs {
		groups[g] = NoiseGroup{Start: start, Count: spec.Count, Eta: eta[g]}
		start += spec.Count
	}
	psp := telemetry.SpanFrom(ctx).StartDetail("perturb")
	psp.AnnotateInt("groups", int64(len(groups)))
	err := PerturbContext(ctx, z, groups, cfg.Privacy, cfg.Seed, workers)
	psp.End()
	if err != nil {
		return nil, err
	}
	return z, nil
}

// trueAnswers returns a fresh, writable S·x and whether it was copied from
// the answer memo. The memo serves only frozen inputs and plans with fewer
// rows than x has cells (an identity plan's answers are a copy of x:
// nothing to save).
func (m Measurer) trueAnswers(plan *strategy.Plan, x *vector.Blocked, workers int) ([]float64, bool) {
	if m.entry == nil || !vector.Frozen(x) || plan.Rows() >= x.Len() {
		return plan.TrueAnswers(x, workers), false
	}
	if memo := m.cache.answers(m.entry, x); memo != nil {
		return append([]float64(nil), memo...), true
	}
	a := plan.TrueAnswers(x, workers)
	m.cache.memoize(m.entry, x, a)
	return a, false
}

// NoiseGroup describes one contiguous run of strategy rows sharing a budget.
type NoiseGroup struct {
	Start, Count int
	Eta          float64
}

// noiseBlock subdivides groups into fixed-size row blocks so that even a
// single large group (the identity strategy has 2^d rows in one group)
// spreads across workers. The size is a constant, never derived from the
// worker count — block boundaries are part of the determinism contract.
const noiseBlock = 4096

// Perturb adds one noise draw per strategy row: row r of the group at
// position g in groups reads the substream derived from (seed, g,
// ⌊r/noiseBlock⌋), so the value depends only on (seed, g, r) — never on the
// worker count, scheduling, or the sizes of other groups. A caller that
// perturbs only a subset of groups reproduces the full release's noise
// exactly by keeping each group at its original position index — zero-Count
// placeholders hold the positions of groups it leaves out. Groups must cover
// disjoint ranges of z.
func Perturb(z []float64, groups []NoiseGroup, p noise.Params, seed int64, workers int) {
	// context.Background() is never cancelled, so the error is impossible.
	_ = PerturbContext(context.Background(), z, groups, p, seed, workers)
}

// PerturbContext is Perturb under a context: once ctx is cancelled no
// further noise blocks start (in-flight blocks finish — a block is at most
// noiseBlock rows) and ctx.Err() is returned. On cancellation z is left
// partially perturbed and must be discarded.
func PerturbContext(ctx context.Context, z []float64, groups []NoiseGroup, p noise.Params, seed int64, workers int) error {
	type block struct {
		at, off, n int // at: rows of the blocks before this one
		eta        float64
		sub        uint64
	}
	count := 0
	for _, grp := range groups {
		count += (grp.Count + noiseBlock - 1) / noiseBlock
	}
	blocks := make([]block, 0, count)
	rows := 0
	for g, grp := range groups {
		for b := 0; b < grp.Count; b += noiseBlock {
			n := min(noiseBlock, grp.Count-b)
			blocks = append(blocks, block{
				at: rows, off: grp.Start + b, n: n, eta: grp.Eta,
				sub: uint64(g)<<32 | uint64(b/noiseBlock),
			})
			rows += n
		}
	}
	// Above the grain a chunk of rows owns the blocks that start inside it,
	// so a chunk never splits a block and mixed group sizes still balance.
	// One reseedable substream Source per worker: the draws of a block are a
	// pure function of (seed, bl.sub), so repositioning a reused Source via
	// Reseed is bit-identical to a fresh NewSubstream per block — without
	// the three allocations per 4096-row block that used to dominate the
	// measurement stage's profile. Worker 0's Source is made up front; the
	// others' slots are empty, hence free, on the serial path.
	workers = par.Workers(rows, workers)
	src0 := noise.NewSubstream(seed, 0)
	more := make([]*noise.Source, workers-1)
	par.For(rows, workers, func(worker, lo, hi int) {
		src := src0
		if worker > 0 {
			if more[worker-1] == nil {
				more[worker-1] = noise.NewSubstream(seed, 0)
			}
			src = more[worker-1]
		}
		first := sort.Search(len(blocks), func(i int) bool { return blocks[i].at >= lo })
		for _, bl := range blocks[first:] {
			if bl.at >= hi || ctx.Err() != nil {
				return
			}
			src.Reseed(seed, bl.sub)
			seg := z[bl.off : bl.off+bl.n]
			for i := range seg {
				seg[i] += p.RowNoise(src, bl.eta)
			}
		}
	})
	return ctx.Err()
}

// Recoverer is the recover stage: noisy strategy answers become
// concatenated marginal answers plus per-marginal cell variances. Every
// recovery reads the answer vector and writes every released cell, so the
// stage states len(z)+TotalCells() as its work. When the plan supports
// per-marginal recovery and that work clears the grain, marginals recover
// concurrently in contiguous runs, each reading the rows of z it needs; the
// serial path and the parallel path are bit-identical because
// strategy.Plan's contract requires Recover to equal the concatenation of
// RecoverMarginal outputs (both accumulate in the same order per output
// cell).
type Recoverer struct{}

// Recover runs the stage. Cancellation is honoured between marginals: no
// new per-marginal recovery starts after ctx is done.
func (Recoverer) Recover(ctx context.Context, w *marginal.Workload, plan *strategy.Plan, z []float64, groupVar []float64, workers int) ([]float64, []float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp := telemetry.SpanFrom(ctx)
	nm := len(w.Marginals)
	workers = par.Workers(len(z)+w.TotalCells(), workers)
	if plan.RecoverMarginal == nil || workers == 1 || nm <= 1 {
		rsp := sp.StartDetail("recover.serial")
		answers, cellVar, err := plan.Recover(z, groupVar)
		rsp.End()
		return answers, cellVar, err
	}
	blocks := make([][]float64, nm)
	cellVar := make([]float64, nm)
	errs := make([]error, nm)
	par.For(nm, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			msp := sp.StartDetail("recover.marginal")
			msp.AnnotateInt("marginal", int64(i))
			blocks[i], cellVar[i], errs[i] = plan.RecoverMarginal(i, z, groupVar)
			msp.End()
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	answers := make([]float64, 0, w.TotalCells())
	for i := 0; i < nm; i++ {
		answers = append(answers, blocks[i]...)
	}
	return answers, cellVar, nil
}

// Consister is the Step-3 stage: the Section 3.3 projection. Above the
// grain it splits its per-marginal transforms and reconstruction across
// workers (consistency.L2WeightedWorkers), bit-identical at every worker
// count; the per-coefficient weighted average stays serial.
type Consister struct{}

// Consist applies the configured projection (possibly a no-op).
// Cancellation is checked on entry; the projection itself runs to
// completion (its pieces are too fine-grained to poll a context
// profitably).
func (Consister) Consist(ctx context.Context, w *marginal.Workload, answers, cellVar []float64, cfg Config, workers int) ([]float64, []float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	switch cfg.Consistency {
	case NoConsistency:
		return answers, nil, nil
	case WeightedL2Consistency:
		weights := make([]float64, len(cellVar))
		for i, v := range cellVar {
			switch {
			case math.IsNaN(v):
				return nil, nil, fmt.Errorf("engine: consistency: marginal %d has NaN cell variance", i)
			case v <= 0 || math.IsInf(v, 1):
				weights[i] = 0
			default:
				weights[i] = 1 / v
			}
		}
		res, err := consistency.L2WeightedWorkers(w, answers, weights, workers)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: consistency: %w", err)
		}
		return res.Answers, res.Coefficients, nil
	default:
		return nil, nil, fmt.Errorf("engine: unknown consistency mode %d", cfg.Consistency)
	}
}

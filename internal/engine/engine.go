package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/bits"
	"repro/internal/budget"
	"repro/internal/consistency"
	"repro/internal/marginal"
	"repro/internal/noise"
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

// Consistency selects the post-processing of Sections 3.3/4.3.
type Consistency int

const (
	// NoConsistency returns the raw recovered answers.
	NoConsistency Consistency = iota
	// L2Consistency projects onto consistent marginals in least squares.
	L2Consistency
	// WeightedL2Consistency weights each marginal by its inverse noise
	// variance — the GLS fusion, optimal among linear consistent estimators.
	WeightedL2Consistency
	// L1Consistency minimises the L1 distance via the Section-4.3 LP.
	L1Consistency
	// LInfConsistency minimises the L∞ distance via the Section-4.3 LP.
	LInfConsistency
)

func (c Consistency) String() string {
	switch c {
	case L2Consistency:
		return "L2"
	case WeightedL2Consistency:
		return "weighted-L2"
	case L1Consistency:
		return "L1"
	case LInfConsistency:
		return "Linf"
	default:
		return "none"
	}
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
	// Step-2 budgeting. nil means a = 1. Requires a strategy implementing
	// strategy.WeightedPlanner (all built-in marginal strategies do).
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
	// consistency pass ran (nil otherwise).
	Coefficients map[bits.Mask]float64
	// Elapsed is the wall-clock cost of the full run.
	Elapsed time.Duration
	// StrategyName is the short experiment-table name of the strategy.
	StrategyName string
}

// Options tunes the engine without changing what it computes: every option
// combination yields a bit-identical Release for the same Config.
type Options struct {
	// Workers bounds the measurement/recovery/consistency worker pool.
	// 0 means runtime.GOMAXPROCS(0); 1 forces fully serial execution.
	Workers int
	// Shards bounds how many blocks the measured strategy-answer vector is
	// partitioned into. 0 auto-shards: vectors with at least AutoShardRows
	// rows split into one block per worker (more only when a block would
	// otherwise exceed MaxShardBlockRows — the per-worker memory bound),
	// smaller ones stay monolithic. 1 forces the monolithic path. Like
	// Workers, the setting never changes a single bit of the release —
	// blocks are fixed cell ranges and every per-cell accumulation order is
	// blocking-independent. Note that for strategies whose AnswerBlock
	// scans the input per block (Workload, Cluster), explicit shard counts
	// far above the worker count buy nothing and cost extra input sweeps;
	// the auto policy avoids that by construction.
	Shards int
	// Cache, when non-nil, memoises Step-1 plans across runs (see PlanCache).
	Cache *PlanCache
}

// AutoShardRows is the strategy-answer length at which Options.Shards == 0
// starts sharding the measure stage: 2^17 rows (1 MiB of float64) is where
// the blocked bookkeeping becomes free against the per-row work.
const AutoShardRows = 1 << 17

// MaxShardBlockRows caps an auto-sharded block at 2^20 rows (8 MiB of
// float64) — the per-worker memory bound the measure stage promises.
const MaxShardBlockRows = 1 << 20

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// shardsFor resolves the shard count for a strategy-answer vector of the
// given length, measured by the given worker pool. The auto policy picks
// one block per worker — more shards than workers add no parallelism and,
// for plans whose AnswerBlock scans the input per block, cost one extra
// input sweep each — growing the count only when a block would otherwise
// exceed the MaxShardBlockRows memory bound.
func (o Options) shardsFor(rows, workers int) int {
	switch {
	case rows <= 0:
		return 1
	case o.Shards == 1:
		return 1
	case o.Shards > 1:
		if o.Shards > rows {
			return rows
		}
		return o.Shards
	default:
		if rows < AutoShardRows {
			return 1
		}
		shards := workers
		if minBlocks := (rows + MaxShardBlockRows - 1) / MaxShardBlockRows; shards < minBlocks {
			shards = minBlocks
		}
		if shards > rows {
			shards = rows
		}
		return shards
	}
}

// ---------------------------------------------------------------------------
// Stage interfaces. Each pipeline step is a small interface so callers can
// substitute instrumented or alternative implementations stage by stage;
// Stages zero-values fall back to the defaults. Every stage receives the
// run's context and must return promptly (ctx.Err wrapped or bare) once it
// is cancelled — the serving layer relies on an abandoned request not
// burning CPU through the remaining stages.

// PlanStage produces the Step-1 strategy plan for a workload.
type PlanStage interface {
	Plan(ctx context.Context, w *marginal.Workload, cfg Config) (*strategy.Plan, error)
}

// AllocateStage performs Step-2 budgeting over the plan's group specs and is
// responsible for rejecting allocations that would break the privacy
// constraint.
type AllocateStage interface {
	Allocate(ctx context.Context, specs []budget.Spec, cfg Config) (*budget.SpecAllocation, error)
}

// MeasureStage computes the noisy strategy answers z = Sx + ν. Both sides
// are blocked vectors: x may arrive sharded (a dataset-store aggregate) and
// z leaves sharded when the plan supports per-block answer slicing, one
// block per worker at a time.
type MeasureStage interface {
	Measure(ctx context.Context, plan *strategy.Plan, x *vector.Blocked, eta []float64, cfg Config, workers, shards int) (*vector.Blocked, error)
}

// RecoverStage turns noisy strategy answers (possibly sharded) into
// concatenated marginal answers plus per-marginal cell variances.
type RecoverStage interface {
	Recover(ctx context.Context, w *marginal.Workload, plan *strategy.Plan, z *vector.Blocked, groupVar []float64, workers int) (answers, cellVar []float64, err error)
}

// ConsistStage applies the Step-3 consistency projection (possibly a
// no-op), fanning the projection's independent pieces over workers.
type ConsistStage interface {
	Consist(ctx context.Context, w *marginal.Workload, answers, cellVar []float64, cfg Config, workers int) ([]float64, map[bits.Mask]float64, error)
}

// Stages bundles one implementation per pipeline step. A nil field selects
// the default implementation.
type Stages struct {
	Plan     PlanStage
	Allocate AllocateStage
	Measure  MeasureStage
	Recover  RecoverStage
	Consist  ConsistStage
}

// Engine executes the staged release pipeline.
type Engine struct {
	opts   Options
	stages Stages
}

// New returns an engine with the default stage implementations.
func New(opts Options) *Engine {
	return NewWithStages(opts, Stages{})
}

// NewWithStages returns an engine with caller-supplied stages; nil fields
// use the defaults (the plan stage default consults opts.Cache).
func NewWithStages(opts Options, st Stages) *Engine {
	if st.Plan == nil {
		st.Plan = Planner{Cache: opts.Cache, Workers: opts.Workers}
	}
	if st.Allocate == nil {
		st.Allocate = Allocator{}
	}
	if st.Measure == nil {
		st.Measure = Measurer{}
	}
	if st.Recover == nil {
		st.Recover = Recoverer{}
	}
	if st.Consist == nil {
		st.Consist = Consister{}
	}
	return &Engine{opts: opts, stages: st}
}

// Options returns the engine's options (workers resolved lazily).
func (e *Engine) Options() Options { return e.opts }

// RunVector executes the mechanism on contingency vector x for the workload
// — the engine's one entry point. The dataset store's sharded aggregate
// feeds the pipeline here without ever being gathered into one dense slice;
// callers holding a dense slice pass vector.FromDense(x), a zero-copy view.
// The release is a pure function of (w, cells of x, cfg): the blocking of
// x, the worker count, the shard count and the plan cache never change a
// single bit of the output.
//
// Cancellation of ctx aborts the pipeline between stages and inside the
// measurement and recovery worker pools, so an abandoned request stops
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
	plan, err := e.stages.Plan.Plan(pctx, w, cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp = tr.Root().StartStage("allocate")
	alloc, err := e.stages.Allocate.Allocate(ctx, plan.Specs, cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	groupVar := budget.SpecVariances(alloc.Eta, cfg.Privacy)

	shards := e.opts.shardsFor(plan.Rows(), workers)
	sp = tr.Root().StartStage("measure")
	mctx := ctx
	if sp != nil {
		sp.AnnotateInt("shards", int64(shards))
		sp.AnnotateInt("workers", int64(workers))
		mctx = telemetry.ContextWithSpan(ctx, sp)
	}
	z, err := e.stages.Measure.Measure(mctx, plan, x, alloc.Eta, cfg, workers, shards)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Root().StartStage("recover")
	rctx := ctx
	if sp != nil {
		rctx = telemetry.ContextWithSpan(ctx, sp)
	}
	answers, cellVar, err := e.stages.Recover.Recover(rctx, w, plan, z, groupVar, workers)
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
	consistent, coeffs, err := e.stages.Consist.Consist(ctx, w, answers, cellVar, cfg, workers)
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
// Default stage implementations.

// Planner is the default PlanStage: it plans through the strategy (weighted
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

// Plan implements PlanStage. The cache lookup is free, so it happens even
// under a cancelled context; only a cache miss — the expensive Step-1
// search — is gated on ctx.
func (p Planner) Plan(ctx context.Context, w *marginal.Workload, cfg Config) (*strategy.Plan, error) {
	sp := telemetry.SpanFrom(ctx)
	if p.Cache != nil {
		key := planKey(w, cfg)
		if plan, ok := p.Cache.get(key); ok {
			sp.Annotate("plan_cache", "hit")
			return plan, nil
		}
		sp.Annotate("plan_cache", "miss")
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan, err := p.planOnce(ctx, w, cfg)
		if err != nil {
			return nil, err
		}
		p.Cache.put(key, plan)
		return plan, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.planOnce(ctx, w, cfg)
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
	case strategy.WeightedPlanner:
		plan, err = s.PlanWeighted(w, cfg.QueryWeights)
	default:
		if cfg.QueryWeights != nil {
			return nil, fmt.Errorf("engine: strategy %s does not support query weights", cfg.Strategy.Name())
		}
		plan, err = cfg.Strategy.Plan(w)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: planning strategy %s: %w", cfg.Strategy.Name(), err)
	}
	return plan, nil
}

// Allocator is the default AllocateStage: the closed-form Step-2 budgets of
// Corollary 3.3 (optimal) or the uniform baseline, followed by the
// Proposition 3.1 privacy re-check.
type Allocator struct{}

// Allocate implements AllocateStage. Budgeting is closed-form and cheap, so
// the context is not consulted beyond the interface contract.
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

// Measurer is the default MeasureStage: exact strategy answers plus
// substream-seeded per-group noise, fanned out over the worker pool.
//
// When the plan supports per-block answer slicing (strategy.Plan.
// AnswerBlock) and shards > 1, the answer vector is built block by block:
// each worker materialises only the blocks vector.Schedule assigns it, one
// at a time, so no contiguous full-length slice ever exists and the
// per-worker scratch is one block. Plans without AnswerBlock (the Fourier
// transform is global) fall back to TrueAnswers, which parallelises and
// bounds memory internally. Either way the noise pass then perturbs the
// blocked vector in the fixed noiseBlock partition — the shard count never
// touches a substream boundary, so the release is bit-identical at every
// (workers, shards) setting.
type Measurer struct{}

// Measure implements MeasureStage.
func (Measurer) Measure(ctx context.Context, plan *strategy.Plan, x *vector.Blocked, eta []float64, cfg Config, workers, shards int) (*vector.Blocked, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var z *vector.Blocked
	if shards > 1 && plan.AnswerBlock != nil {
		z = vector.New(plan.Rows(), shards)
		if err := answerBlocks(ctx, plan, x, z, workers); err != nil {
			return nil, err
		}
	} else {
		z = vector.FromDense(plan.TrueAnswers(x, workers))
	}
	offsets := plan.GroupOffsets()
	groups := make([]NoiseGroup, len(plan.Specs))
	for g, spec := range plan.Specs {
		groups[g] = NoiseGroup{Start: offsets[g], Count: spec.Count, Eta: eta[g]}
	}
	psp := telemetry.SpanFrom(ctx).StartDetail("perturb")
	psp.AnnotateInt("groups", int64(len(groups)))
	err := PerturbVectorContext(ctx, z, groups, cfg.Privacy, cfg.Seed, workers)
	psp.End()
	if err != nil {
		return nil, err
	}
	return z, nil
}

// answerBlocks fills the blocked answer vector through plan.AnswerBlock,
// each worker walking the blocks vector.Schedule assigns it in order.
// Cancellation is honoured between blocks.
func answerBlocks(ctx context.Context, plan *strategy.Plan, x *vector.Blocked, z *vector.Blocked, workers int) error {
	sp := telemetry.SpanFrom(ctx)
	sched := vector.Schedule(z.Blocks(), workers)
	if len(sched) == 1 {
		for _, bi := range sched[0] {
			if err := ctx.Err(); err != nil {
				return err
			}
			lo, hi := z.BlockRange(bi)
			bsp := sp.StartDetail("measure.block")
			bsp.AnnotateInt("lo", int64(lo))
			bsp.AnnotateInt("rows", int64(hi-lo))
			plan.AnswerBlock(x, lo, hi, z.Block(bi))
			bsp.End()
		}
		return nil
	}
	var wg sync.WaitGroup
	for _, list := range sched {
		wg.Add(1)
		go func(list []int) {
			defer wg.Done()
			for _, bi := range list {
				if ctx.Err() != nil {
					return
				}
				lo, hi := z.BlockRange(bi)
				bsp := sp.StartDetail("measure.block")
				bsp.AnnotateInt("lo", int64(lo))
				bsp.AnnotateInt("rows", int64(hi-lo))
				plan.AnswerBlock(x, lo, hi, z.Block(bi))
				bsp.End()
			}
		}(list)
	}
	wg.Wait()
	return ctx.Err()
}

// NoiseGroup describes one contiguous run of strategy rows sharing a budget.
type NoiseGroup struct {
	Start, Count int
	Eta          float64
}

// noiseBlock subdivides groups into fixed-size row blocks so that even a
// single large group (the identity strategy has 2^d rows in one group)
// spreads across the pool. The size is a constant, never derived from the
// worker count — block boundaries are part of the determinism contract.
const noiseBlock = 4096

// Perturb adds one noise draw per strategy row: row r of the group at
// position g in groups reads the substream derived from (seed, g,
// ⌊r/noiseBlock⌋), so the value depends only on (seed, g, r) — never on the
// worker count, scheduling, or the sizes of other groups. A caller that
// perturbs only a subset of groups (a shard) reproduces the full release's
// noise exactly by keeping each group at its original position index —
// zero-Count placeholders hold the positions of groups a shard doesn't own.
// Groups must cover disjoint ranges of z.
func Perturb(z []float64, groups []NoiseGroup, p noise.Params, seed int64, workers int) {
	// context.Background() is never cancelled, so the error is impossible.
	_ = PerturbContext(context.Background(), z, groups, p, seed, workers)
}

// PerturbContext is Perturb under a context: once ctx is cancelled no
// further noise blocks start (in-flight blocks finish — a block is at most
// noiseBlock rows) and ctx.Err() is returned. On cancellation z is left
// partially perturbed and must be discarded.
func PerturbContext(ctx context.Context, z []float64, groups []NoiseGroup, p noise.Params, seed int64, workers int) error {
	return PerturbVectorContext(ctx, vector.FromDense(z), groups, p, seed, workers)
}

// PerturbVectorContext is PerturbContext over a blocked answer vector: the
// substream partition is the fixed noiseBlock row grid, which a noise block
// walks across storage-block boundaries through Segments, so the vector's
// blocking is invisible to the draws — one more axis of the determinism
// contract (noise depends only on seed, group and row).
func PerturbVectorContext(ctx context.Context, z *vector.Blocked, groups []NoiseGroup, p noise.Params, seed int64, workers int) error {
	type block struct {
		off, n int
		eta    float64
		sub    uint64
	}
	count := 0
	for _, grp := range groups {
		count += (grp.Count + noiseBlock - 1) / noiseBlock
	}
	blocks := make([]block, 0, count)
	for g, grp := range groups {
		for b := 0; b < grp.Count; b += noiseBlock {
			n := noiseBlock
			if grp.Count-b < n {
				n = grp.Count - b
			}
			blocks = append(blocks, block{
				off: grp.Start + b, n: n, eta: grp.Eta,
				sub: uint64(g)<<32 | uint64(b/noiseBlock),
			})
		}
	}
	// One reseedable substream Source per worker: the draws of a block are a
	// pure function of (seed, bl.sub), so repositioning a reused Source via
	// Reseed is bit-identical to a fresh NewSubstream per block — without the
	// three allocations per 4096-row block that used to dominate the
	// measurement stage's profile.
	perturbBlock := func(src *noise.Source, bl block) {
		src.Reseed(seed, bl.sub)
		z.Segments(bl.off, bl.off+bl.n, func(_ int, seg []float64) {
			for i := range seg {
				seg[i] += p.RowNoise(src, bl.eta)
			}
		})
	}
	done := ctx.Done()
	if workers <= 1 || len(blocks) <= 1 {
		src := noise.NewSubstream(seed, 0)
		for _, bl := range blocks {
			if err := ctx.Err(); err != nil {
				return err
			}
			perturbBlock(src, bl)
		}
		return nil
	}
	if workers > len(blocks) {
		workers = len(blocks)
	}
	var wg sync.WaitGroup
	next := make(chan block)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := noise.NewSubstream(seed, 0)
			for bl := range next {
				if ctx.Err() != nil {
					continue // drain the channel without doing work
				}
				perturbBlock(src, bl)
			}
		}()
	}
feed:
	for _, bl := range blocks {
		select {
		case next <- bl:
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}

// PerturbRangeContext adds the release's noise to the strategy rows
// [lo, lo+len(out)), writing row r's draw into out[r-lo] — the primitive a
// remote shard uses to reproduce its slice of the full perturbation without
// holding the whole vector. It replays exactly the draws Perturb makes for
// those rows: the row grid is the same fixed noiseBlock partition, and
// because the number of raw uniforms consumed per row is variable (the
// Gaussian ziggurat and the Laplace draw both reject), a range that starts
// mid-block must reseed at the block boundary and burn the leading rows'
// draws rather than jump the stream. That burn-in is at most noiseBlock-1
// rows per group and is the price of bit-identity.
//
// Groups must be the full release's group list in original order (position
// g selects the substream), exactly as passed to Perturb. out is
// accumulated into (+=), matching Perturb's contract.
func PerturbRangeContext(ctx context.Context, out []float64, lo int, groups []NoiseGroup, p noise.Params, seed int64) error {
	hi := lo + len(out)
	src := noise.NewSubstream(seed, 0)
	for g, grp := range groups {
		if grp.Start+grp.Count <= lo || grp.Start >= hi {
			continue
		}
		for b := 0; b < grp.Count; b += noiseBlock {
			n := noiseBlock
			if grp.Count-b < n {
				n = grp.Count - b
			}
			bLo := grp.Start + b
			bHi := bLo + n
			if bHi <= lo {
				continue
			}
			if bLo >= hi {
				break
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			src.Reseed(seed, uint64(g)<<32|uint64(b/noiseBlock))
			for r := bLo; r < bHi; r++ {
				v := p.RowNoise(src, grp.Eta)
				if r >= lo && r < hi {
					out[r-lo] += v
				}
			}
		}
	}
	return nil
}

// Recoverer is the default RecoverStage. When the plan supports per-marginal
// recovery and more than one worker is available, marginals recover
// concurrently, each reading the shards of z it needs (merged shard
// contributions — the blocked accessors gather exactly the answer ranges a
// marginal touches); the serial path and the parallel path are bit-identical
// because strategy.Plan's contract requires Recover to equal the
// concatenation of RecoverMarginal outputs (both accumulate in the same
// order per output cell).
type Recoverer struct{}

// Recover implements RecoverStage. Cancellation is honoured between
// marginals: no new per-marginal recovery starts after ctx is done.
func (Recoverer) Recover(ctx context.Context, w *marginal.Workload, plan *strategy.Plan, z *vector.Blocked, groupVar []float64, workers int) ([]float64, []float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp := telemetry.SpanFrom(ctx)
	if plan.RecoverMarginal == nil || workers <= 1 || len(w.Marginals) <= 1 {
		rsp := sp.StartDetail("recover.serial")
		answers, cellVar, err := plan.Recover(z, groupVar)
		rsp.End()
		return answers, cellVar, err
	}
	nm := len(w.Marginals)
	if workers > nm {
		workers = nm
	}
	blocks := make([][]float64, nm)
	cellVar := make([]float64, nm)
	errs := make([]error, nm)
	done := ctx.Done()
	var wg sync.WaitGroup
	next := make(chan int)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				msp := sp.StartDetail("recover.marginal")
				msp.AnnotateInt("marginal", int64(i))
				blocks[i], cellVar[i], errs[i] = plan.RecoverMarginal(i, z, groupVar)
				msp.End()
			}
		}()
	}
feed:
	for i := 0; i < nm; i++ {
		select {
		case next <- i:
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
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

// Consister is the default ConsistStage: the Section 3.3/4.3 projections.
// The L2 projections — historically the pipeline's last serial stage — fan
// their per-marginal transforms, the sharded per-coefficient weighted
// average and the reconstruction over the worker pool
// (consistency.L2WeightedWorkers), bit-identical at every worker count.
// The L1/L∞ LPs remain monolithic solves.
type Consister struct{}

// Consist implements ConsistStage. Cancellation is checked on entry; the
// projection itself runs to completion (its pieces are too fine-grained to
// poll a context profitably).
func (Consister) Consist(ctx context.Context, w *marginal.Workload, answers, cellVar []float64, cfg Config, workers int) ([]float64, map[bits.Mask]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	switch cfg.Consistency {
	case NoConsistency:
		return answers, nil, nil
	case L2Consistency:
		res, err := consistency.L2WeightedWorkers(w, answers, nil, workers)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: consistency: %w", err)
		}
		return res.Answers, res.Coefficients, nil
	case WeightedL2Consistency:
		weights := make([]float64, len(cellVar))
		for i, v := range cellVar {
			if v <= 0 || math.IsInf(v, 1) {
				weights[i] = 0
			} else {
				weights[i] = 1 / v
			}
		}
		res, err := consistency.L2WeightedWorkers(w, answers, weights, workers)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: consistency: %w", err)
		}
		return res.Answers, res.Coefficients, nil
	case L1Consistency:
		res, err := consistency.L1(w, answers)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: consistency: %w", err)
		}
		return res.Answers, res.Coefficients, nil
	case LInfConsistency:
		res, err := consistency.LInf(w, answers)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: consistency: %w", err)
		}
		return res.Answers, res.Coefficients, nil
	default:
		return nil, nil, fmt.Errorf("engine: unknown consistency mode %d", cfg.Consistency)
	}
}

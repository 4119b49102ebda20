package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/accountant"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/vector"
)

// BlockedVector is a contingency vector stored as contiguous cell-range
// shards (see internal/vector): the form dataset aggregates take, and the
// form ReleaseBlocked consumes without ever gathering one dense 2^d slice.
type BlockedVector = vector.Blocked

// NewBlockedVector copies a dense contingency vector into the sharded form.
func NewBlockedVector(x []float64) *BlockedVector {
	b := vector.NewBlockLen(len(x), vector.DefaultBlockLen)
	b.Scatter(x)
	return b
}

// Releaser is the long-lived service object of the package: constructed
// once per (schema, workload) pair, it pre-plans the Step-1 strategy
// (warming its PlanCache, which for the cluster strategy is orders of
// magnitude more expensive than any single release), then answers any
// number of Release calls — each an independent differentially private
// mechanism run with its own (ε, δ, seed). Planning is privacy-independent,
// so one Releaser serves a whole ε sweep or a stream of per-request
// budgets without replanning.
//
// A Releaser is safe for concurrent use: the plan cache and budget ledger
// are concurrency-safe, and each release runs on its own engine worker
// pool. When a BudgetLedger is attached (WithBudgetLedger / WithBudgetCap),
// every successful admission charges the requested (ε, δ) and releases past
// the cap fail with ErrBudgetExhausted before touching the data.
type Releaser struct {
	schema *Schema // may be nil (vector-only releases, no attr decoding)
	w      *Workload

	strategy        StrategyKind
	uniformBudget   bool
	skipConsistency bool
	modifyNeighbors bool
	queryWeights    []float64
	workers         int
	cache           *PlanCache
	ledger          *BudgetLedger
	registry        *BudgetRegistry
	composition     Composition
	capEps, capDel  float64
	capSet          bool
	perKeyCaps      map[string]BudgetKeyCaps
	noPreplan       bool

	seq atomic.Uint64 // ledger label counter
}

// ReleaserOption configures a Releaser at construction.
type ReleaserOption func(*Releaser) error

// WithStrategy selects the Step-1 strategy matrix (default StrategyFourier).
func WithStrategy(k StrategyKind) ReleaserOption {
	return func(r *Releaser) error {
		switch k {
		case StrategyFourier, StrategyWorkload, StrategyIdentity, StrategyCluster:
			r.strategy = k
			return nil
		default:
			return fmt.Errorf("%w: unknown strategy kind %d", ErrInvalidOption, k)
		}
	}
}

// WithWorkers bounds the engine worker pool for measurement and recovery.
// 0 uses all CPUs; 1 forces serial execution. Released values are
// bit-identical at every setting.
func WithWorkers(n int) ReleaserOption {
	return func(r *Releaser) error {
		if n < 0 {
			return fmt.Errorf("%w: negative worker count %d", ErrInvalidOption, n)
		}
		r.workers = n
		return nil
	}
}

// WithCache shares a plan cache with other Releasers (a serving process
// typically holds one cache for its whole Releaser registry). Without this
// option the Releaser owns a private cache.
func WithCache(c *PlanCache) ReleaserOption {
	return func(r *Releaser) error {
		if c == nil {
			return fmt.Errorf("%w: nil plan cache", ErrInvalidOption)
		}
		r.cache = c
		return nil
	}
}

// WithBudgetLedger attaches a (possibly shared) cumulative-spend ledger:
// each release charges its (ε, δ) on admission and fails with
// ErrBudgetExhausted once the cap would be passed.
func WithBudgetLedger(l *BudgetLedger) ReleaserOption {
	return func(r *Releaser) error {
		if l == nil {
			return fmt.Errorf("%w: nil budget ledger", ErrInvalidOption)
		}
		r.ledger = l
		return nil
	}
}

// WithBudgetCap is WithBudgetLedger over a fresh private ledger with the
// given total (ε, δ) cap. The ledger is built at the end of construction
// so it composes with WithComposition in either option order; it replaces
// any ledger attached with WithBudgetLedger.
func WithBudgetCap(epsilonCap, deltaCap float64) ReleaserOption {
	return func(r *Releaser) error {
		r.capEps, r.capDel = epsilonCap, deltaCap
		r.capSet = true
		r.perKeyCaps = nil
		return nil
	}
}

// WithBudgetCaps attaches a multi-tenant BudgetRegistry: a private ledger
// per key in perKey (zero caps inherit the global cap), plus the global
// (epsilonCap, deltaCap) ledger that binds across all of them. Releases
// route to a tenant with ReleaseSpec.Key; admission is all-or-nothing
// across the key's ledger and the global one. Like WithBudgetCap, the
// registry is built at the end of construction so WithComposition applies
// in either option order.
func WithBudgetCaps(epsilonCap, deltaCap float64, perKey map[string]BudgetKeyCaps) ReleaserOption {
	return func(r *Releaser) error {
		if len(perKey) == 0 {
			return fmt.Errorf("%w: WithBudgetCaps needs at least one key (use WithBudgetCap for a single-tenant cap)", ErrInvalidOption)
		}
		r.capEps, r.capDel = epsilonCap, deltaCap
		r.capSet = true
		r.perKeyCaps = make(map[string]BudgetKeyCaps, len(perKey))
		for k, caps := range perKey {
			r.perKeyCaps[k] = caps
		}
		return nil
	}
}

// WithComposition selects the accounting mode (BasicComposition,
// ZCDPComposition) of the ledger or registry the Releaser builds through
// WithBudgetCap / WithBudgetCaps. It has no effect on a ledger attached
// with WithBudgetLedger, which already carries its own composition.
func WithComposition(c Composition) ReleaserOption {
	return func(r *Releaser) error {
		if c == nil {
			return fmt.Errorf("%w: nil composition", ErrInvalidOption)
		}
		r.composition = c
		return nil
	}
}

// WithUniformBudget disables the paper's non-uniform Step-2 budgeting and
// reproduces the prior-work baseline.
func WithUniformBudget() ReleaserOption {
	return func(r *Releaser) error { r.uniformBudget = true; return nil }
}

// WithoutConsistency returns raw recovered answers without the Fourier
// consistency projection. Consistency is free post-processing: skipping it
// never changes what a release costs against the budget ledger.
func WithoutConsistency() ReleaserOption {
	return func(r *Releaser) error { r.skipConsistency = true; return nil }
}

// WithModifyNeighbors uses the "modify one tuple" neighbour model
// (sensitivity doubled); the default is add/remove-one-tuple.
func WithModifyNeighbors() ReleaserOption {
	return func(r *Releaser) error { r.modifyNeighbors = true; return nil }
}

// WithQueryWeights weights each workload marginal's importance in the
// Step-2 budgeting (the paper's aᵀ·Var(y) objective). The length must match
// the workload, and every weight must be finite and non-negative. Under
// optimal budgeting, zero weights that leave some strategy group with no
// weight at all (a Fourier coefficient, or a marginal of the workload
// strategy, that only zero-weighted marginals read) are refused with
// ErrInvalidOption — at construction, or before any charge when the
// Releaser was built WithoutPreplan.
func WithQueryWeights(weights []float64) ReleaserOption {
	return func(r *Releaser) error {
		for i, v := range weights {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: query weight %v for marginal %d is not finite and non-negative",
					ErrInvalidOption, v, i)
			}
		}
		r.queryWeights = append([]float64(nil), weights...)
		return nil
	}
}

// WithoutPreplan skips the construction-time planning pass. The first
// release then pays the Step-1 cost instead — useful when a Releaser is
// registered speculatively and may never serve a request.
func WithoutPreplan() ReleaserOption {
	return func(r *Releaser) error { r.noPreplan = true; return nil }
}

// NewReleaser validates the configuration, pre-plans the strategy for the
// workload (warming the plan cache) and returns a ready-to-serve Releaser.
// schema may be nil for callers releasing raw contingency vectors; the
// Result then omits attribute indices and Synthetic is unavailable.
func NewReleaser(schema *Schema, w *Workload, opts ...ReleaserOption) (*Releaser, error) {
	return NewReleaserContext(context.Background(), schema, w, opts...)
}

// NewReleaserContext is NewReleaser under a context: cancellation aborts
// the construction-time planning pass (which for the cluster strategy can
// dominate everything else).
func NewReleaserContext(ctx context.Context, schema *Schema, w *Workload, opts ...ReleaserOption) (*Releaser, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: nil workload", ErrInvalidOption)
	}
	if len(w.Marginals) == 0 {
		// An empty workload would pass admission (and charge a ledger) only
		// to fail in the engine's budgeting stage — refuse it up front.
		return nil, fmt.Errorf("%w: workload has no marginals", ErrInvalidOption)
	}
	if schema != nil && schema.Dim() != w.D {
		return nil, fmt.Errorf("%w: workload dimension %d, schema dimension %d",
			ErrDimensionMismatch, w.D, schema.Dim())
	}
	r := &Releaser{schema: schema, w: w, strategy: StrategyFourier}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("%w: nil ReleaserOption", ErrInvalidOption)
		}
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	if r.queryWeights != nil && len(r.queryWeights) != len(w.Marginals) {
		return nil, fmt.Errorf("%w: %d query weights for %d marginals",
			ErrInvalidOption, len(r.queryWeights), len(w.Marginals))
	}
	if r.cache == nil {
		r.cache = NewPlanCache()
	}
	// Budget construction is deferred to here so WithComposition and
	// WithBudgetCap(s) compose in either option order.
	if r.capSet {
		comp := r.composition
		if comp == nil {
			comp = BasicComposition()
		}
		if r.perKeyCaps != nil {
			reg, err := NewBudgetRegistry(r.capEps, r.capDel, comp, r.perKeyCaps)
			if err != nil {
				return nil, err
			}
			r.registry = reg
			r.ledger = nil
		} else {
			l, err := NewBudgetLedgerComposed(r.capEps, r.capDel, comp)
			if err != nil {
				return nil, err
			}
			r.ledger = l
		}
	} else if r.composition != nil && r.ledger == nil {
		return nil, fmt.Errorf("%w: WithComposition needs WithBudgetCap or WithBudgetCaps", ErrInvalidOption)
	}
	if !r.noPreplan {
		if err := r.checkPlan(ctx); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkPlan plans the Releaser's workload through its cache (the
// construction-time preplan, or a cache hit) and refuses query weights
// that leave a strategy group without row weight under optimal budgeting.
// Corollary 3.3 gives such a group no budget, so every release would fail
// in the engine's budgeting stage, after its admission had charged the
// ledger. All-zero row weights are fine: budgeting then falls back to the
// uniform allocation.
func (r *Releaser) checkPlan(ctx context.Context) error {
	plan, err := engine.Planner{Cache: r.cache, Workers: r.workers}.Plan(ctx, r.w, engine.Config{
		Strategy:     r.strategy.impl(),
		QueryWeights: r.queryWeights,
	})
	if err != nil || r.uniformBudget {
		return err
	}
	unweighted := -1
	funded := false
	for g, spec := range plan.Specs {
		if spec.RowWeight > 0 {
			funded = true
		} else if unweighted < 0 {
			unweighted = g
		}
	}
	if funded && unweighted >= 0 {
		return fmt.Errorf("%w: the query weights leave strategy group %d with no weight, so optimal budgeting gives it no budget",
			ErrInvalidOption, unweighted)
	}
	return nil
}

// Schema returns the schema the Releaser was constructed with (may be nil).
func (r *Releaser) Schema() *Schema { return r.schema }

// Workload returns the marginal workload the Releaser answers.
func (r *Releaser) Workload() *Workload { return r.w }

// Ledger returns the attached single-tenant budget ledger (nil when spend
// is untracked or tracked per key — see Registry).
func (r *Releaser) Ledger() *BudgetLedger { return r.ledger }

// Registry returns the attached multi-tenant budget registry
// (WithBudgetCaps), or nil.
func (r *Releaser) Registry() *BudgetRegistry { return r.registry }

// Cache returns the Releaser's plan cache (never nil after construction).
func (r *Releaser) Cache() *PlanCache { return r.cache }

// Strategy returns the configured strategy kind.
func (r *Releaser) Strategy() StrategyKind { return r.strategy }

// ReleaseSpec parameterises one release. Everything structural (schema,
// workload, strategy, budgeting mode) lives on the Releaser; the spec holds
// only what legitimately varies per call.
type ReleaseSpec struct {
	// Epsilon is this release's privacy budget (required, > 0).
	Epsilon float64
	// Delta switches this release to (ε, δ)-DP with Gaussian noise when
	// positive.
	Delta float64
	// Seed makes the release reproducible; 0 is a valid fixed seed.
	Seed int64
	// Label names the release in the budget ledger; empty generates
	// "release-N".
	Label string
	// Partition names the disjoint population slice for parallel
	// composition in the ledger; empty means the whole population. The
	// caller guarantees that the table released here holds only that
	// slice and that distinct partitions are disjoint: the ledger cannot
	// check either (see BudgetCharge.Partition).
	Partition string
	// Key names the tenant whose ledger this release charges when the
	// Releaser carries a per-key BudgetRegistry (WithBudgetCaps); empty
	// charges only the global ledger. With a plain ledger a non-empty Key
	// is refused — silently billing one tenant's release to a shared pot
	// would be an accounting bug, not a convenience.
	Key string
}

// Release privately answers the Releaser's workload over the table.
func (r *Releaser) Release(ctx context.Context, t *Table, spec ReleaseSpec) (*Result, error) {
	if t == nil || t.Schema == nil {
		return nil, fmt.Errorf("%w: nil table or schema", ErrInvalidOption)
	}
	if t.Schema.Dim() != r.w.D {
		return nil, fmt.Errorf("%w: workload dimension %d, table schema dimension %d",
			ErrDimensionMismatch, r.w.D, t.Schema.Dim())
	}
	x, err := t.Vector()
	if err != nil {
		return nil, err
	}
	return r.ReleaseBlocked(ctx, vector.FromDense(x), spec)
}

// ReleaseBlocked is Release for callers who already hold the contingency
// vector, sharded (NewBlockedVector, or a dataset-store aggregate, which
// reaches the engine without ever being gathered into one dense slice).
// Bit-identical to Release over the same cells at the same spec, whatever
// the blocking.
func (r *Releaser) ReleaseBlocked(ctx context.Context, x *BlockedVector, spec ReleaseSpec) (*Result, error) {
	if err := validatePrivacy(spec.Epsilon, spec.Delta); err != nil {
		return nil, err
	}
	if x == nil || x.Len() != 1<<uint(r.w.D) {
		got := 0
		if x != nil {
			got = x.Len()
		}
		return nil, fmt.Errorf("%w: data vector has %d entries, domain needs %d",
			ErrDimensionMismatch, got, 1<<uint(r.w.D))
	}
	if r.noPreplan && slices.Contains(r.queryWeights, 0) {
		// Construction did not plan, so refuse an unfundable weighting here,
		// before admission charges the ledger.
		if err := r.checkPlan(ctx); err != nil {
			return nil, err
		}
	}
	if err := r.charge(ctx, spec); err != nil {
		return nil, err
	}
	cons := engine.WeightedL2Consistency
	if r.skipConsistency {
		cons = engine.NoConsistency
	}
	budgeting := engine.OptimalBudget
	if r.uniformBudget {
		budgeting = engine.UniformBudget
	}
	rel, err := engine.New(
		engine.Options{Workers: r.workers, Cache: r.cache},
	).RunVector(ctx, r.w, x, engine.Config{
		Strategy:     r.strategy.impl(),
		Budgeting:    budgeting,
		Consistency:  cons,
		Privacy:      r.params(spec),
		Seed:         spec.Seed,
		QueryWeights: r.queryWeights,
	})
	if err != nil {
		return nil, err
	}
	return buildResult(r.w, r.schema, rel), nil
}

// ReleaseDataset privately answers the Releaser's workload over an ingested
// dataset — the upload-once / release-many path. The handle's pre-aggregated
// contingency vector feeds the engine directly, skipping re-vectorization,
// so the release is bit-identical to Release over the same rows at the same
// spec. The caller keeps ownership of the handle (and must Close it); the
// Releaser only reads through it for the duration of the call.
func (r *Releaser) ReleaseDataset(ctx context.Context, h *DatasetHandle, spec ReleaseSpec) (*Result, error) {
	if h == nil {
		return nil, fmt.Errorf("%w: nil dataset handle", ErrInvalidOption)
	}
	// Two schemas can share a bit-width with different attribute layouts
	// (one 16-ary column vs two 4-ary ones); releasing across that boundary
	// would silently mislabel every marginal, so require attribute-level
	// equality whenever the Releaser knows its schema. Without one, the
	// vector-length check in ReleaseBlocked still refuses a dimension
	// mismatch.
	if r.schema != nil && !r.schema.Equal(h.Schema()) {
		return nil, fmt.Errorf("%w: dataset %q schema does not match the Releaser's schema",
			ErrDimensionMismatch, h.ID())
	}
	return r.ReleaseBlocked(ctx, h.Vector(), spec)
}

// Synthetic converts a consistent release from this Releaser into row-level
// synthetic microdata (see SyntheticData). Post-processing adds no privacy
// cost: the ledger is not charged.
func (r *Releaser) Synthetic(ctx context.Context, res *Result, seed int64) (*Table, error) {
	if r.schema == nil {
		return nil, fmt.Errorf("%w: Releaser has no schema; synthetic data needs one", ErrInvalidOption)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return SyntheticData(r.schema, r.w, res, seed)
}

// EffectiveSigma describes one release at the spec's privacy parameters as
// a single Gaussian mechanism: the returned σ, under the Sensitivity = 1
// convention, carries the release's exact zCDP cost ρ = 1/(2σ²).
//
// Derivation: the measure stage answers strategy group g (non-zero
// magnitude C_g, support-disjoint rows) with Gaussian noise of scale
// σ_g = √(2·ln(2/δ))/η_g. In noise-normalised coordinates one changed
// tuple moves the measurement vector by at most
// Δ = κ·√(Σ_g C_g²·η_g²)/√(2·ln(2/δ)) (κ the neighbour-model factor), so
// the whole release is one sensitivity-Δ unit-noise Gaussian mechanism and
// σ_eff = 1/Δ. When the allocator saturates the Proposition 3.1 constraint
// (Σ_g C_g²·η_g² = (ε/κ)²) this reduces to σ_eff = √(2·ln(2/δ))/ε — the
// same ρ the accountant's (ε, δ) conversion assumes; an unsaturated
// allocation (groups the recovery never reads spend nothing) yields a
// strictly larger σ_eff, i.e. a strictly cheaper, still exact, ρ.
//
// Pure-DP specs (Delta == 0) return 0: Laplace noise has no Gaussian
// description, and zCDP accounting falls back to ε-DP ⇒ (ε²/2)-zCDP.
// Planning runs through the Releaser's cache, so after the first call (or
// construction-time preplan) the cost is a closed-form allocation.
func (r *Releaser) EffectiveSigma(ctx context.Context, spec ReleaseSpec) (float64, error) {
	if spec.Delta <= 0 {
		return 0, nil
	}
	if err := validatePrivacy(spec.Epsilon, spec.Delta); err != nil {
		return 0, err
	}
	budgeting := engine.OptimalBudget
	if r.uniformBudget {
		budgeting = engine.UniformBudget
	}
	cfg := engine.Config{
		Strategy:     r.strategy.impl(),
		Budgeting:    budgeting,
		Privacy:      r.params(spec),
		QueryWeights: r.queryWeights,
	}
	plan, err := engine.Planner{Cache: r.cache, Workers: r.workers}.Plan(ctx, r.w, cfg)
	if err != nil {
		return 0, err
	}
	alloc, err := engine.Allocator{}.Allocate(ctx, plan.Specs, cfg)
	if err != nil {
		return 0, err
	}
	load2 := 0.0
	for g, sp := range plan.Specs {
		load2 += sp.C * sp.C * alloc.Eta[g] * alloc.Eta[g]
	}
	if load2 <= 0 {
		return 0, fmt.Errorf("%w: allocation spends no budget on any group", ErrInvalidOption)
	}
	kappa := cfg.Privacy.Neighbor.Factor()
	return math.Sqrt(2*math.Log(2/spec.Delta)) / (kappa * math.Sqrt(load2)), nil
}

// charge performs ledger admission: an atomic check-and-record, so
// concurrent releases can never jointly pass the cap. Budget is committed
// at admission — a release that fails after admission (cancellation
// included) still counts as spent, the conservative reading required for
// the DP guarantee to survive partial executions.
func (r *Releaser) charge(ctx context.Context, spec ReleaseSpec) error {
	if r.ledger == nil && r.registry == nil {
		if spec.Key != "" {
			return fmt.Errorf("%w: ReleaseSpec.Key %q without a budget registry (WithBudgetCaps)", ErrInvalidOption, spec.Key)
		}
		return nil
	}
	label := spec.Label
	if label == "" {
		label = fmt.Sprintf("release-%d", r.seq.Add(1))
	}
	c := BudgetCharge{
		Label:     label,
		Epsilon:   spec.Epsilon,
		Delta:     spec.Delta,
		Partition: spec.Partition,
	}
	// Gaussian releases additionally carry their exact mechanism
	// description: zCDP composition then charges ρ = 1/(2σ²) directly
	// instead of the (ε, δ) conversion bound. Best-effort — a planning
	// failure here leaves σ = 0 (the conservative conversion) and will
	// resurface as the release's own error.
	if spec.Delta > 0 {
		if sigma, err := r.EffectiveSigma(ctx, spec); err == nil && sigma > 0 {
			c.Sigma = sigma
			c.Sensitivity = 1
		}
	}
	var err error
	if r.registry != nil {
		err = r.registry.Charge(spec.Key, c)
	} else {
		if spec.Key != "" {
			return fmt.Errorf("%w: ReleaseSpec.Key %q needs a per-key registry (WithBudgetCaps), not a plain ledger", ErrInvalidOption, spec.Key)
		}
		err = r.ledger.Charge(c)
	}
	if err != nil {
		if errors.Is(err, accountant.ErrBudgetExceeded) {
			return fmt.Errorf("%w: %v", ErrBudgetExhausted, err)
		}
		return err
	}
	return nil
}

// params maps a spec onto the Releaser's neighbour model.
func (r *Releaser) params(spec ReleaseSpec) noise.Params {
	o := Options{
		Epsilon:         spec.Epsilon,
		Delta:           spec.Delta,
		ModifyNeighbors: r.modifyNeighbors,
	}
	return o.params()
}

// buildResult shapes an engine release into the public per-marginal form.
func buildResult(w *Workload, schema *Schema, rel *engine.Release) *Result {
	res := &Result{
		Answers:       rel.Answers,
		TotalVariance: rel.TotalVariance,
		Strategy:      rel.StrategyName,
	}
	per := core.PerMarginal(w, rel.Answers)
	res.Tables = make([]MarginalTable, len(w.Marginals))
	for i, m := range w.Marginals {
		mt := MarginalTable{
			Mask:     m.Alpha,
			Cells:    per[i],
			Variance: rel.CellVariances[i],
		}
		if schema != nil {
			for ai := range schema.Attrs {
				am := schema.AttrMask(ai)
				if m.Alpha&am != 0 {
					mt.Attrs = append(mt.Attrs, ai)
				}
			}
		}
		res.Tables[i] = mt
	}
	return res
}

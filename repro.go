package repro

import (
	"context"
	"fmt"

	"repro/internal/bits"
	"repro/internal/consistency"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/strategy"
)

// PlanCache memoises Step-1 strategy plans across releases over the same
// schema and workload — the serving scenario, where repeated releases skip
// the (for some strategies very expensive) planning step entirely. A cache
// is safe for concurrent use and never changes released values.
type PlanCache = engine.PlanCache

// NewPlanCache returns a bounded LRU plan cache to share across releases.
func NewPlanCache() *PlanCache { return engine.NewPlanCache(0) }

// NewPlanCacheSize is NewPlanCache with an explicit entry bound
// (0 = default).
func NewPlanCacheSize(maxEntries int) *PlanCache { return engine.NewPlanCache(maxEntries) }

// CacheStats is a point-in-time snapshot of plan-cache effectiveness.
type CacheStats = engine.CacheStats

// Re-exported data-model types. The public API works in terms of schemas,
// tables and marginal workloads; the contingency-vector plumbing stays
// internal.
type (
	// Attribute is one categorical column of the input relation.
	Attribute = dataset.Attribute
	// Schema is an ordered attribute list with a fixed binary encoding.
	Schema = dataset.Schema
	// Table is a multiset of tuples under a schema.
	Table = dataset.Table
	// Workload is an ordered set of marginal queries.
	Workload = marginal.Workload
	// Mask identifies a marginal by its binary-attribute set.
	Mask = bits.Mask
)

// NewSchema validates attributes and computes the binary encoding.
func NewSchema(attrs []Attribute) (*Schema, error) { return dataset.NewSchema(attrs) }

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs []Attribute) *Schema { return dataset.MustSchema(attrs) }

// StrategyKind selects the Step-1 strategy matrix.
type StrategyKind int

// Available strategies, named as in the paper's experimental study.
const (
	// StrategyFourier answers the workload's Fourier coefficients
	// (Barak et al.); scalable and consistent, the recommended default.
	StrategyFourier StrategyKind = iota
	// StrategyWorkload perturbs each requested marginal directly (S = Q).
	StrategyWorkload
	// StrategyIdentity materialises noisy base counts (S = I).
	StrategyIdentity
	// StrategyCluster greedily clusters marginals (Ding et al.); most
	// accurate on low-order workloads, exponentially slower to plan.
	StrategyCluster
)

func (k StrategyKind) String() string {
	switch k {
	case StrategyWorkload:
		return "workload"
	case StrategyIdentity:
		return "identity"
	case StrategyCluster:
		return "cluster"
	default:
		return "fourier"
	}
}

func (k StrategyKind) impl() strategy.Strategy {
	switch k {
	case StrategyWorkload:
		return strategy.Workload{}
	case StrategyIdentity:
		return strategy.Identity{}
	case StrategyCluster:
		return strategy.Cluster{}
	default:
		return strategy.Fourier{}
	}
}

// Options configures a private release. The zero value releases with the
// Fourier strategy, optimal non-uniform budgets, weighted-L2 consistency and
// ε-DP; Epsilon must be set explicitly.
type Options struct {
	// Epsilon is the total privacy budget (required, > 0).
	Epsilon float64
	// Delta switches to (ε,δ)-DP with Gaussian noise when positive.
	Delta float64
	// Strategy selects the strategy matrix (default Fourier).
	Strategy StrategyKind
	// UniformBudget disables the paper's non-uniform budgeting and
	// reproduces the prior-work baseline.
	UniformBudget bool
	// SkipConsistency returns raw recovered answers without the
	// Fourier-consistency projection.
	SkipConsistency bool
	// ModifyNeighbors uses the "modify one tuple" neighbour model
	// (sensitivity doubled); default is add/remove-one-tuple.
	ModifyNeighbors bool
	// Seed makes the release reproducible; 0 is a valid fixed seed.
	Seed int64
	// QueryWeights optionally weights each marginal's importance in the
	// noise budgeting (the paper's aᵀ·Var(y) objective); QueryWeights[i]
	// applies to workload marginal i. nil means equal importance.
	QueryWeights []float64
	// Workers bounds the release engine's worker pool for noisy measurement
	// and per-marginal recovery. 0 uses all available CPUs; 1 forces serial
	// execution. The released values are bit-identical at every setting.
	Workers int
	// Shards bounds how many blocks the measure stage partitions the
	// strategy-answer vector into (0 auto-shards above the engine's row
	// threshold; 1 forces the monolithic path). Bit-identical at every
	// setting, like Workers.
	Shards int
	// Cache optionally reuses Step-1 plans across releases (see PlanCache).
	Cache *PlanCache
}

func (o Options) params() noise.Params {
	p := noise.Params{Type: noise.PureDP, Epsilon: o.Epsilon, Neighbor: noise.AddRemove}
	if o.Delta > 0 {
		p.Type = noise.ApproxDP
		p.Delta = o.Delta
	}
	if o.ModifyNeighbors {
		p.Neighbor = noise.Modify
	}
	return p
}

// MarginalTable is one released marginal.
type MarginalTable struct {
	// Attrs are the original schema attribute indices the marginal is over.
	Attrs []int
	// Mask is the marginal's binary-attribute mask.
	Mask Mask
	// Cells are the noisy counts; Cells[i] corresponds to the attribute
	// values dataset.Schema.Decode would produce for the cell's bit pattern.
	Cells []float64
	// Variance is the per-cell noise variance before consistency.
	Variance float64
}

// Result is a complete private release.
type Result struct {
	// Tables holds one noisy marginal per workload entry, in order.
	Tables []MarginalTable
	// Answers is the concatenated raw answer vector (workload order).
	Answers []float64
	// TotalVariance is the analytic total output variance of the mechanism.
	TotalVariance float64
	// Strategy and budgeting descriptors for reporting.
	Strategy string
}

// AllKWayMarginals builds the workload Q_k over the schema's original
// attributes.
func AllKWayMarginals(s *Schema, k int) *Workload { return marginal.SchemaKWay(s, k) }

// KWayPlusHalf builds Q*_k: all k-way marginals plus the (deterministic)
// first half of the (k+1)-way marginals.
func KWayPlusHalf(s *Schema, k int) *Workload { return marginal.SchemaKWayStar(s, k) }

// KWayAnchored builds Q^a_k: all k-way marginals plus every (k+1)-way
// marginal containing the anchor attribute.
func KWayAnchored(s *Schema, k, anchor int) *Workload {
	return marginal.SchemaKWayAnchored(s, k, anchor)
}

// MarginalsOver builds a workload of explicit attribute-index sets, e.g.
// MarginalsOver(s, [][]int{{0}, {0, 2}}).
func MarginalsOver(s *Schema, attrSets [][]int) (*Workload, error) {
	alphas := make([]Mask, len(attrSets))
	for i, set := range attrSets {
		for _, a := range set {
			if a < 0 || a >= len(s.Attrs) {
				return nil, fmt.Errorf("repro: attribute index %d out of range", a)
			}
		}
		alphas[i] = s.MaskOf(set...)
	}
	return marginal.NewWorkload(s.Dim(), alphas)
}

// releaserOptions maps the flat one-shot Options onto Releaser construction
// options, keeping the legacy entry points thin wrappers over the service
// API.
func (o Options) releaserOptions() []ReleaserOption {
	opts := []ReleaserOption{WithStrategy(o.Strategy)}
	if o.UniformBudget {
		opts = append(opts, WithUniformBudget())
	}
	if o.SkipConsistency {
		opts = append(opts, WithoutConsistency())
	}
	if o.ModifyNeighbors {
		opts = append(opts, WithModifyNeighbors())
	}
	if o.QueryWeights != nil {
		opts = append(opts, WithQueryWeights(o.QueryWeights))
	}
	if o.Workers > 0 {
		opts = append(opts, WithWorkers(o.Workers))
	}
	if o.Shards > 0 {
		opts = append(opts, WithShards(o.Shards))
	}
	if o.Cache != nil {
		opts = append(opts, WithCache(o.Cache))
	}
	// One-shot callers gain nothing from the construction-time planning
	// pass (the run plans — and caches — anyway), so skip it.
	opts = append(opts, WithoutPreplan())
	return opts
}

// spec extracts the per-release parameters from the flat Options.
func (o Options) spec() ReleaseSpec {
	return ReleaseSpec{Epsilon: o.Epsilon, Delta: o.Delta, Seed: o.Seed}
}

// Release privately answers the workload over the table — a thin wrapper
// over a throwaway Releaser. Long-lived callers (many releases over one
// schema and workload) should construct a Releaser once instead: it
// pre-plans, caches, accepts a context and can enforce a cumulative budget
// cap.
func Release(t *Table, w *Workload, o Options) (*Result, error) {
	if t == nil || t.Schema == nil {
		return nil, fmt.Errorf("%w: nil table or schema", ErrInvalidOption)
	}
	r, err := NewReleaser(t.Schema, w, o.releaserOptions()...)
	if err != nil {
		return nil, err
	}
	return r.Release(context.Background(), t, o.spec())
}

// consistencyOf recovers the Fourier coefficients of a release, aligned
// with w.FourierSupport(), by running the deterministic L2 consistency
// projection over its answers.
func consistencyOf(w *Workload, res *Result) ([]float64, error) {
	cres, err := consistency.L2(w, res.Answers)
	if err != nil {
		return nil, err
	}
	return cres.Coefficients, nil
}

// Synthetic data generators re-exported for examples and experiments.
var (
	// SyntheticAdult generates a census-like table with Adult's schema.
	SyntheticAdult = dataset.SyntheticAdult
	// SyntheticNLTCS generates a disability-survey-like binary table.
	SyntheticNLTCS = dataset.SyntheticNLTCS
)

// AdultSchema and NLTCSSchema mirror the paper's datasets.
func AdultSchema() *Schema { return dataset.AdultSchema() }

// NLTCSSchema returns the 16-binary-attribute NLTCS schema.
func NLTCSSchema() *Schema { return dataset.NLTCSSchema() }

// Package rangequery applies the paper's budgeting framework to the other
// query class it discusses: 1-D range queries over an ordered domain,
// answered through the hierarchical strategy of Hay et al. [14] or the Haar
// wavelet strategy of Xiao et al. [23]. Both matrices satisfy the grouping
// property (one group per tree/wavelet level, Section 3.1), so the
// closed-form optimal budgets apply — the generalisation the paper claims
// beyond marginals, and the setting where [4] used non-uniform budgets.
package rangequery

import (
	"context"
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/transform"
)

// Interval is a half-open range [Lo, Hi) over the domain.
type Interval struct {
	Lo, Hi int
}

// Workload is a set of range queries over a domain of Size cells.
type Workload struct {
	Size      int
	Intervals []Interval
}

// NewWorkload validates the ranges.
func NewWorkload(size int, intervals []Interval) (*Workload, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rangequery: domain size %d", size)
	}
	for i, iv := range intervals {
		if iv.Lo < 0 || iv.Hi > size || iv.Lo > iv.Hi {
			return nil, fmt.Errorf("rangequery: interval %d = [%d,%d) invalid over %d", i, iv.Lo, iv.Hi, size)
		}
	}
	return &Workload{Size: size, Intervals: intervals}, nil
}

// Eval answers the ranges exactly.
func (w *Workload) Eval(x []float64) []float64 {
	prefix := make([]float64, w.Size+1)
	for i, v := range x[:w.Size] {
		prefix[i+1] = prefix[i] + v
	}
	out := make([]float64, len(w.Intervals))
	for i, iv := range w.Intervals {
		out[i] = prefix[iv.Hi] - prefix[iv.Lo]
	}
	return out
}

// AllRanges enumerates every [lo, hi) interval — the full range workload
// studied by [14] and [23].
func AllRanges(size int) *Workload {
	var ivs []Interval
	for lo := 0; lo < size; lo++ {
		for hi := lo + 1; hi <= size; hi++ {
			ivs = append(ivs, Interval{lo, hi})
		}
	}
	return &Workload{Size: size, Intervals: ivs}
}

// Release is a noisy range-query answer set.
type Release struct {
	Answers []float64
	// QueryVariances holds the analytic per-query noise variance.
	QueryVariances []float64
	// GroupBudgets are the per-level budgets chosen by Step 2.
	GroupBudgets []float64
	// TotalVariance sums QueryVariances.
	TotalVariance float64
}

// Method selects the strategy matrix.
type Method int

const (
	// Hierarchy uses the binary-tree strategy of [14]: one group per level.
	Hierarchy Method = iota
	// Wavelet uses the Haar strategy of [23]: one group per wavelet level.
	Wavelet
	// Flat adds noise to each domain cell (S = I) — the baseline.
	Flat
)

func (m Method) String() string {
	switch m {
	case Wavelet:
		return "wavelet"
	case Flat:
		return "flat"
	default:
		return "hierarchy"
	}
}

// Run answers the workload over data x (len ≥ Workload.Size) with the
// chosen strategy and budgeting, measuring over a bounded pool of workers.
// Noise is drawn from per-group seed substreams (the engine's determinism
// contract), so the release is bit-identical at every worker count.
// Cancellation of ctx aborts the noisy measurement mid-flight (see
// engine.PerturbContext) and returns ctx.Err().
func Run(ctx context.Context, w *Workload, x []float64, m Method, budgeting string, p noise.Params, seed int64, workers int) (*Release, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(x) < w.Size {
		return nil, fmt.Errorf("rangequery: data has %d cells, workload needs %d", len(x), w.Size)
	}
	switch m {
	case Hierarchy:
		return runHierarchy(ctx, w, x, budgeting, p, seed, workers)
	case Wavelet:
		return runWavelet(ctx, w, x, budgeting, p, seed, workers)
	case Flat:
		return runFlat(ctx, w, x, budgeting, p, seed, workers)
	default:
		return nil, fmt.Errorf("rangequery: unknown method %d", m)
	}
}

func allocate(specs []budget.Spec, budgeting string, p noise.Params) (*budget.SpecAllocation, error) {
	if budgeting == "optimal" {
		return budget.OptimalSpecs(specs, p)
	}
	return budget.UniformSpecs(specs, p)
}

// runHierarchy answers every node of a binary tree over the padded domain,
// one group per level (C = 1), recovery by dyadic range decomposition.
func runHierarchy(ctx context.Context, w *Workload, x []float64, budgeting string, p noise.Params, seed int64, workers int) (*Release, error) {
	h := transform.NewHierarchy(w.Size)
	// Recovery weight per node = number of workload ranges whose dyadic
	// decomposition uses it.
	useCount := make([]float64, h.Rows())
	decomps := make([][]int, len(w.Intervals))
	for qi, iv := range w.Intervals {
		nodes := h.RangeDecomposition(iv.Lo, iv.Hi)
		decomps[qi] = nodes
		for _, nd := range nodes {
			useCount[nd]++
		}
	}
	// Group nodes per level; rows are level-major in heap order already.
	// Levels no decomposition touches are excluded from the release
	// entirely — unreleased rows need (and get) no budget.
	levelWeight := make([]float64, h.Levels)
	levelCount := make([]int, h.Levels)
	for nd := 0; nd < h.Rows(); nd++ {
		l := h.Level(nd)
		levelWeight[l] += useCount[nd]
		levelCount[l]++
	}
	specOf := make([]int, h.Levels)
	var specs []budget.Spec
	for l := 0; l < h.Levels; l++ {
		if levelWeight[l] == 0 {
			specOf[l] = -1
			continue
		}
		specOf[l] = len(specs)
		specs = append(specs, budget.Spec{
			Count:     levelCount[l],
			RowWeight: levelWeight[l] / float64(levelCount[l]),
			C:         1,
		})
	}
	if len(specs) == 0 {
		// Workload of empty ranges only: answer zeros with no noise spend.
		return &Release{
			Answers:        make([]float64, len(w.Intervals)),
			QueryVariances: make([]float64, len(w.Intervals)),
		}, nil
	}
	alloc, err := allocate(specs, budgeting, p)
	if err != nil {
		return nil, err
	}
	groupVar := budget.SpecVariances(alloc.Eta, p)

	z := h.Answer(x[:w.Size])
	nodeVar := make([]float64, h.Rows())
	for nd := range z {
		si := specOf[h.Level(nd)]
		if si < 0 {
			z[nd] = 0 // never released, never read by any decomposition
			nodeVar[nd] = 0
			continue
		}
		nodeVar[nd] = groupVar[si]
	}
	// Nodes are level-major in heap order, so each released level is one
	// contiguous noise group.
	var groups []engine.NoiseGroup
	start := 0
	for l := 0; l < h.Levels; l++ {
		if si := specOf[l]; si >= 0 {
			groups = append(groups, engine.NoiseGroup{Start: start, Count: levelCount[l], Eta: alloc.Eta[si]})
		}
		start += levelCount[l]
	}
	if err := engine.PerturbContext(ctx, z, groups, p, seed, workers); err != nil {
		return nil, err
	}
	answers := make([]float64, len(w.Intervals))
	qv := make([]float64, len(w.Intervals))
	total := 0.0
	for qi, nodes := range decomps {
		for _, nd := range nodes {
			answers[qi] += z[nd]
			qv[qi] += nodeVar[nd]
		}
		total += qv[qi]
	}
	return &Release{Answers: answers, QueryVariances: qv, GroupBudgets: alloc.Eta, TotalVariance: total}, nil
}

// runWavelet answers the Haar coefficients, one group per wavelet level.
// A range query is a linear functional of the coefficients; its weights are
// the Haar transform of the range's indicator vector.
func runWavelet(ctx context.Context, w *Workload, x []float64, budgeting string, p noise.Params, seed int64, workers int) (*Release, error) {
	n := 1
	for n < w.Size {
		n <<= 1
	}
	levels := 1
	for v := n; v > 1; v >>= 1 {
		levels++
	}
	padded := make([]float64, n)
	copy(padded, x[:w.Size])
	coeffs := append([]float64(nil), padded...)
	transform.Haar(coeffs)

	// Query weights in coefficient space: Haar of the indicator (Haar is
	// orthonormal, so ⟨ind, x⟩ = ⟨Haar(ind), Haar(x)⟩).
	indicators := make([][]float64, len(w.Intervals))
	useWeight := make([]float64, n) // Σ_q weight² per coefficient
	for qi, iv := range w.Intervals {
		ind := make([]float64, n)
		for j := iv.Lo; j < iv.Hi; j++ {
			ind[j] = 1
		}
		transform.Haar(ind)
		indicators[qi] = ind
		for c, v := range ind {
			useWeight[c] += v * v
		}
	}
	// Wavelet grouping: level l holds coefficients [2^{l−1}, 2^l) (level 0
	// is the DC coefficient). Haar columns have one non-zero per level with
	// per-level magnitude (n/2^l … ), but the orthonormal normalisation
	// makes every column's level-l entry magnitude 2^{-l'/2}-ish; grouping
	// uses the exact per-level column magnitude.
	levelOf := func(c int) int { return transform.HaarLevel(c) }
	counts := make([]int, levels)
	weights := make([]float64, levels)
	for c := 0; c < n; c++ {
		l := levelOf(c)
		counts[l]++
		weights[l] += useWeight[c]
	}
	// Levels carrying no query energy are excluded from the release (no
	// query reads them, so they need no budget).
	specOf := make([]int, levels)
	var specs []budget.Spec
	for l := 0; l < levels; l++ {
		if weights[l] == 0 {
			specOf[l] = -1
			continue
		}
		// Column magnitude of level l in the orthonormal Haar matrix: the
		// DC row has 1/√n; a detail row at level l ≥ 1 has entry magnitude
		// √(2^{l−1}/n), read off the matrix structure.
		var mag float64
		if l == 0 {
			mag = 1 / math.Sqrt(float64(n))
		} else {
			mag = math.Sqrt(float64(int64(1)<<uint(l-1)) / float64(n))
		}
		specOf[l] = len(specs)
		specs = append(specs, budget.Spec{
			Count:     counts[l],
			RowWeight: weights[l] / float64(counts[l]),
			C:         mag,
		})
	}
	if len(specs) == 0 {
		return &Release{
			Answers:        make([]float64, len(w.Intervals)),
			QueryVariances: make([]float64, len(w.Intervals)),
		}, nil
	}
	alloc, err := allocate(specs, budgeting, p)
	if err != nil {
		return nil, err
	}
	groupVar := budget.SpecVariances(alloc.Eta, p)

	coefVar := make([]float64, n)
	for c := 0; c < n; c++ {
		si := specOf[levelOf(c)]
		if si < 0 {
			coeffs[c] = 0 // unreleased: zero query weight everywhere
			continue
		}
		coefVar[c] = groupVar[si]
	}
	// Coefficients are level-major (level 0 is the DC entry, level l ≥ 1
	// occupies [2^{l−1}, 2^l)), so each released level is one contiguous
	// noise group.
	var groups []engine.NoiseGroup
	for l := 0; l < levels; l++ {
		si := specOf[l]
		if si < 0 {
			continue
		}
		start := 0
		if l > 0 {
			start = 1 << uint(l-1)
		}
		groups = append(groups, engine.NoiseGroup{Start: start, Count: counts[l], Eta: alloc.Eta[si]})
	}
	if err := engine.PerturbContext(ctx, coeffs, groups, p, seed, workers); err != nil {
		return nil, err
	}
	answers := make([]float64, len(w.Intervals))
	qv := make([]float64, len(w.Intervals))
	total := 0.0
	for qi, ind := range indicators {
		s, v := 0.0, 0.0
		for c, wgt := range ind {
			if wgt == 0 {
				continue
			}
			s += wgt * coeffs[c]
			v += wgt * wgt * coefVar[c]
		}
		answers[qi] = s
		qv[qi] = v
		total += v
	}
	return &Release{Answers: answers, QueryVariances: qv, GroupBudgets: alloc.Eta, TotalVariance: total}, nil
}

// runFlat perturbs each cell and sums.
func runFlat(ctx context.Context, w *Workload, x []float64, budgeting string, p noise.Params, seed int64, workers int) (*Release, error) {
	meanLen := 0.0
	for _, iv := range w.Intervals {
		meanLen += float64(iv.Hi - iv.Lo)
	}
	if len(w.Intervals) > 0 {
		meanLen /= float64(len(w.Intervals))
	}
	specs := []budget.Spec{{Count: w.Size, RowWeight: math.Max(meanLen, 1), C: 1}}
	alloc, err := allocate(specs, budgeting, p)
	if err != nil {
		return nil, err
	}
	groupVar := budget.SpecVariances(alloc.Eta, p)
	noisy := make([]float64, w.Size)
	copy(noisy, x[:w.Size])
	if err := engine.PerturbContext(ctx, noisy, []engine.NoiseGroup{{Start: 0, Count: w.Size, Eta: alloc.Eta[0]}}, p, seed, workers); err != nil {
		return nil, err
	}
	answers := make([]float64, len(w.Intervals))
	qv := make([]float64, len(w.Intervals))
	total := 0.0
	for qi, iv := range w.Intervals {
		for j := iv.Lo; j < iv.Hi; j++ {
			answers[qi] += noisy[j]
		}
		qv[qi] = float64(iv.Hi-iv.Lo) * groupVar[0]
		total += qv[qi]
	}
	return &Release{Answers: answers, QueryVariances: qv, GroupBudgets: alloc.Eta, TotalVariance: total}, nil
}

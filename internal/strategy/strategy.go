// Package strategy implements Step 1 of the framework: the strategy
// matrices S whose noisy answers z = Sx + ν are recombined into marginal
// answers. Each strategy exposes a Plan — a group-structured description of
// S (feeding Step 2's budgeting), the exact strategy answers S·x, and the
// initial recovery from noisy answers to marginal tables together with the
// per-marginal cell variances (feeding the consistency step and the error
// accounting).
//
// Implemented strategies, mirroring Section 5:
//
//	Identity — S = I, materialise noisy base counts and aggregate ("I").
//	Workload — S = Q, perturb every queried marginal directly ("Q"/"Q+").
//	Fourier  — S = the Fourier coefficients F of the workload ("F"/"F+"),
//	           the strategy of Barak et al. [1].
//	Cluster  — greedy clustered marginals of Ding et al. [6] ("C"/"C+").
//
// All strategies satisfy the grouping property (Definition 3.1); their
// groups are laid out group-major so the strategy answers can be addressed
// per group without per-row bookkeeping.
//
// Plans speak vector.Blocked on both sides: the contingency vector arrives
// sharded (a dataset-store aggregate, or a single-block view of a dense
// slice) and the strategy answers leave sharded. Strategies that can slice
// their answer rows expose AnswerBlock, the per-block contract the engine's
// sharded measure stage fans out over its worker pool.
package strategy

import (
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/marginal"
	"repro/internal/transform"
	"repro/internal/vector"
)

// Plan is the structured description a strategy produces for one workload.
type Plan struct {
	// Strategy is the short name used in the experiment tables (I, Q, F, C).
	Strategy string
	// Specs describe the groups of S in row-major order: group g occupies
	// rows [Σ_{h<g} Count_h, …).
	Specs []budget.Spec
	// TrueAnswers computes S·x from a (possibly sharded) contingency vector,
	// laid out group-major. workers bounds any internal parallelism (0 = all
	// CPUs, 1 = serial) and never changes a single bit of the output.
	TrueAnswers func(x *vector.Blocked, workers int) []float64
	// AnswerBlock, when non-nil, computes strategy rows [lo, hi) of S·x into
	// out (len hi−lo). Contract (relied on by the engine's sharded measure
	// stage): tiling [0, Rows()) with AnswerBlock calls must be bit-identical
	// to TrueAnswers — the same floating-point accumulation per row — so the
	// release never depends on the shard count. Strategies whose answers
	// cannot be sliced per row (the Fourier transform is global) leave this
	// nil and parallelise inside TrueAnswers instead.
	AnswerBlock func(x *vector.Blocked, lo, hi int, out []float64)
	// Recover maps noisy strategy answers (group-major, possibly sharded,
	// with per-group noise variances) to the concatenated workload answers
	// and the per-marginal cell variance (constant within a marginal for
	// every strategy here).
	Recover func(z *vector.Blocked, groupVar []float64) (answers []float64, cellVar []float64, err error)
	// RecoverMarginal, when non-nil, recovers workload marginal i alone:
	// its cell block and per-cell variance. Contract (relied on by the
	// engine's parallel recovery): concatenating RecoverMarginal(0..ℓ−1)
	// must be bit-identical to Recover — same floating-point operations in
	// the same per-cell order — so that the release does not depend on the
	// worker count. Strategies with recovery that cannot be split per
	// marginal leave this nil and recover serially.
	RecoverMarginal func(i int, z *vector.Blocked, groupVar []float64) (cells []float64, cellVar float64, err error)
	// Persist, when non-nil, is the serializable residue of the planning
	// search (see PlanRecord): enough to rebuild this plan via RebuildPlan
	// without re-running it. Strategies whose planning is cheap leave it
	// nil — there is nothing worth persisting.
	Persist *PlanRecord
}

// Answers is TrueAnswers over a dense vector, serially — the convenience
// form for tests and small callers.
func (p *Plan) Answers(x []float64) []float64 {
	return p.TrueAnswers(vector.FromDense(x), 1)
}

// RecoverDense is Recover over a dense strategy-answer slice.
func (p *Plan) RecoverDense(z []float64, groupVar []float64) ([]float64, []float64, error) {
	return p.Recover(vector.FromDense(z), groupVar)
}

// Rows returns the total number of strategy rows.
func (p *Plan) Rows() int {
	n := 0
	for _, s := range p.Specs {
		n += s.Count
	}
	return n
}

// GroupOffsets returns the first row index of every group.
func (p *Plan) GroupOffsets() []int {
	out := make([]int, len(p.Specs))
	acc := 0
	for i, s := range p.Specs {
		out[i] = acc
		acc += s.Count
	}
	return out
}

// recoverFromMarginals builds a Plan.Recover as the concatenation of a
// per-marginal recovery function, making the engine's bit-identity contract
// (Recover ≡ concat(RecoverMarginal)) hold by construction.
func recoverFromMarginals(w *marginal.Workload, rm func(i int, z *vector.Blocked, groupVar []float64) ([]float64, float64, error)) func(z *vector.Blocked, groupVar []float64) ([]float64, []float64, error) {
	return func(z *vector.Blocked, groupVar []float64) ([]float64, []float64, error) {
		answers := make([]float64, 0, w.TotalCells())
		cellVar := make([]float64, len(w.Marginals))
		for i := range w.Marginals {
			cells, cv, err := rm(i, z, groupVar)
			if err != nil {
				return nil, nil, err
			}
			answers = append(answers, cells...)
			cellVar[i] = cv
		}
		return answers, cellVar, nil
	}
}

// Strategy plans a workload.
type Strategy interface {
	Name() string
	Plan(w *marginal.Workload) (*Plan, error)
}

// PlanKeyer is implemented by strategies whose plan depends on configuration
// beyond the short Name — the plan cache keys on PlanCacheKey instead so two
// differently configured instances never alias. Strategies without
// configurable planning need not implement it.
type PlanKeyer interface {
	PlanCacheKey() string
}

// ---------------------------------------------------------------------------
// Identity strategy: S = I.

// Identity materialises noisy base counts (S = I) and aggregates them into
// the requested marginals. Its single group makes uniform budgeting optimal,
// as the paper notes.
type Identity struct{}

// Name implements Strategy.
func (Identity) Name() string { return "I" }

// Plan implements Strategy.
func (Identity) Plan(w *marginal.Workload) (*Plan, error) {
	n := 1 << uint(w.D)
	ell := float64(len(w.Marginals))
	specs := []budget.Spec{{Count: n, RowWeight: ell, C: 1}}
	// Each marginal cell sums 2^{d−k} independent noisy counts.
	rm := func(i int, z *vector.Blocked, groupVar []float64) ([]float64, float64, error) {
		if z.Len() != n || len(groupVar) != 1 {
			return nil, 0, fmt.Errorf("strategy: identity recover got %d answers, %d variances", z.Len(), len(groupVar))
		}
		m := w.Marginals[i]
		return m.EvalVector(z), float64(int64(1)<<uint(w.D-m.Order())) * groupVar[0], nil
	}
	return &Plan{
		Strategy: "I",
		Specs:    specs,
		TrueAnswers: func(x *vector.Blocked, _ int) []float64 {
			if x.Len() != n {
				panic(fmt.Sprintf("strategy: identity expects %d cells, got %d", n, x.Len()))
			}
			out := make([]float64, n)
			x.CopyTo(out)
			return out
		},
		// S = I: answer row r is cell r, so a block of rows is a block of
		// cells — the sharded measure stage copies (and perturbs) one block
		// per worker without any full-length scratch.
		AnswerBlock: func(x *vector.Blocked, lo, hi int, out []float64) {
			if x.Len() != n {
				panic(fmt.Sprintf("strategy: identity expects %d cells, got %d", n, x.Len()))
			}
			x.CopyRange(out, lo)
		},
		Recover:         recoverFromMarginals(w, rm),
		RecoverMarginal: rm,
	}, nil
}

// ---------------------------------------------------------------------------
// Workload strategy: S = Q.

// Workload answers every queried marginal directly (S = Q): one group per
// marginal with unit magnitudes, so non-uniform budgeting splits ε by
// marginal size (the Section 1 worked example).
type Workload struct{}

// Name implements Strategy.
func (Workload) Name() string { return "Q" }

// Plan implements Strategy.
func (Workload) Plan(w *marginal.Workload) (*Plan, error) {
	specs := make([]budget.Spec, len(w.Marginals))
	for i, m := range w.Marginals {
		specs[i] = budget.Spec{Count: m.Cells(), RowWeight: 1, C: 1}
	}
	offsets := w.Offsets()
	rm := func(i int, z *vector.Blocked, groupVar []float64) ([]float64, float64, error) {
		if z.Len() != w.TotalCells() || len(groupVar) != len(w.Marginals) {
			return nil, 0, fmt.Errorf("strategy: workload recover got %d answers, %d variances", z.Len(), len(groupVar))
		}
		m := w.Marginals[i]
		cells := make([]float64, m.Cells())
		z.CopyRange(cells, offsets[i])
		return cells, groupVar[i], nil
	}
	return &Plan{
		Strategy: "Q",
		Specs:    specs,
		TrueAnswers: func(x *vector.Blocked, _ int) []float64 {
			if x.Len() != 1<<uint(w.D) {
				panic(fmt.Sprintf("strategy: workload expects %d cells, got %d", 1<<uint(w.D), x.Len()))
			}
			return w.EvalSinglePassVector(x)
		},
		AnswerBlock: func(x *vector.Blocked, lo, hi int, out []float64) {
			w.EvalRangeVector(x, lo, hi, out)
		},
		Recover:         recoverFromMarginals(w, rm),
		RecoverMarginal: rm,
	}, nil
}

// ---------------------------------------------------------------------------
// Fourier strategy.

// fourierBlockLen picks the scratch blocking for the blocked WHT: 2^15
// cells per block (256 KiB) keeps the per-worker footprint small while the
// cross-block stages stay a vanishing fraction of the butterfly work.
func fourierBlockLen(n int) int {
	const maxBlock = 1 << 15
	if n < maxBlock {
		return n
	}
	return maxBlock
}

// Fourier answers the Fourier coefficients F = ∪{β ⪯ α_i} of the workload
// (Barak et al. [1]) and reconstructs marginals by Theorem 4.1. Every
// coefficient is its own group (the Hadamard rows are dense), with
// C = 2^{−d/2} and recovery weight w_β = Σ_{i: β⪯α_i} 2^{d−‖α_i‖}
// (Lemma 4.2's b_i = 2·w_β).
type Fourier struct{}

// Name implements Strategy.
func (Fourier) Name() string { return "F" }

// Plan implements Strategy.
func (Fourier) Plan(w *marginal.Workload) (*Plan, error) {
	return planFourier(w, nil), nil
}

// planFourier builds the Fourier plan under query weights a (nil = all
// ones); a must already be validated.
func planFourier(w *marginal.Workload, a []float64) *Plan {
	support := w.FourierSupport()
	cols := w.FourierColumns()
	offsets := w.Offsets()
	d := w.D
	n := 1 << uint(d)
	cInv := 1 / math.Sqrt(float64(n))

	// Recovery weight per coefficient, w_β = Σ_{i: β⪯α_i} a_i·2^{d−‖α_i‖},
	// accumulated marginal-major along the column index.
	weights := make([]float64, len(support))
	for i, m := range w.Marginals {
		contrib := weightAt(a, i) * float64(int64(1)<<uint(d-m.Order()))
		for _, c := range cols[offsets[i] : offsets[i]+m.Cells()] {
			weights[c] += contrib
		}
	}
	specs := make([]budget.Spec, len(support))
	for i := range support {
		specs[i] = budget.Spec{Count: 1, RowWeight: weights[i], C: cInv}
	}
	// Theorem 4.1 reconstruction reads only the coefficients β ⪯ α_i: the
	// column index names their rows of z, packed in the marginal's cell
	// order, and the per-marginal cell variance is
	// Var((Cα)_γ) = Σ_{β⪯α} (2^{d/2−k})²·Var(z_β) = 2^{d−2k}·Σ Var, summed
	// in the same packed order.
	rm := func(i int, z *vector.Blocked, groupVar []float64) ([]float64, float64, error) {
		if z.Len() != len(support) || len(groupVar) != len(support) {
			return nil, 0, fmt.Errorf("strategy: fourier recover got %d answers, %d variances", z.Len(), len(groupVar))
		}
		m := w.Marginals[i]
		cells := make([]float64, m.Cells())
		sum := 0.0
		for j, c := range cols[offsets[i] : offsets[i]+len(cells)] {
			cells[j] = z.At(int(c))
			sum += groupVar[c]
		}
		transform.MarginalFromCoefficients(d, cells)
		rCoefSq := math.Pow(2, float64(d-2*m.Order()))
		return cells, rCoefSq * sum, nil
	}
	return &Plan{
		Strategy: "F",
		Specs:    specs,
		// The Walsh–Hadamard transform is global — answer rows cannot be
		// sliced per block — so AnswerBlock stays nil and the sharding
		// happens inside: the scratch copy of x is itself blocked (no
		// contiguous 2^d slice) and the butterfly stages fan out over the
		// worker pool, bit-identical to the serial transform.
		//
		// A sparse x skips the 2^d transform. By Theorem 4.1 every β ⪯ α
		// is a coefficient of the marginal Cα x, so one unscaled 2^k
		// butterfly per exact workload marginal yields it. The sparse form
		// holds integer counts totalling below 2^53, so the kernel's sums
		// and both butterfly networks are exact, and each coefficient is
		// the same integer on either route until the one multiply by cInv,
		// the scale WHTBlocked applies: the answers are bit-identical.
		TrueAnswers: func(x *vector.Blocked, workers int) []float64 {
			if x.Len() != n {
				panic(fmt.Sprintf("strategy: fourier expects %d cells, got %d", n, x.Len()))
			}
			if _, _, ok := vector.Sparse(x); ok {
				out := make([]float64, len(support))
				exact := w.EvalSinglePassVector(x)
				for i, m := range w.Marginals {
					cells := exact[offsets[i] : offsets[i]+m.Cells()]
					transform.WHTUnscaled(cells)
					for j, c := range cols[offsets[i] : offsets[i]+len(cells)] {
						out[c] = cells[j] * cInv
					}
				}
				return out
			}
			scratch := x.CloneBlockLen(fourierBlockLen(n))
			transform.WHTBlocked(scratch, workers)
			out := make([]float64, len(support))
			for i, b := range support {
				out[i] = scratch.At(int(b))
			}
			return out
		},
		Recover:         recoverFromMarginals(w, rm),
		RecoverMarginal: rm,
	}
}

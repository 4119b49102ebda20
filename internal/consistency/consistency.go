// Package consistency implements the Fourier-coefficient consistency step of
// Sections 3.3 and 4.3: given noisy (mutually inconsistent) marginal tables,
// it finds the consistent set of marginals closest to them in L2 (closed
// form), or in L1/L∞ (linear programming), where "consistent" means all
// tables are marginals of one common (unknown) data vector.
//
// The L2 program min ‖R·f̂ − ỹ‖₂ over the Fourier coefficients f̂ has a
// remarkable structure: with R_{(i,γ),β} = 2^{d/2−‖α_i‖}·(−1)^{⟨β,γ⟩} for
// β ⪯ α_i, the Gram matrix RᵀR is diagonal, because for β ≠ β' both
// dominated by α_i, Σ_{γ⪯α_i}(−1)^{⟨β⊕β',γ⟩} = 0 (β⊕β' is a non-empty
// subset of α_i). Hence
//
//	f̂_β = Σ_{i: β⪯α_i} 2^{d/2−‖α_i‖}·T_β^{(i)}  /  Σ_{i: β⪯α_i} 2^{d−‖α_i‖},
//	T_β^{(i)} = Σ_{γ⪯α_i} (−1)^{⟨β,γ⟩}·ỹ_{(i,γ)}
//
// — a per-coefficient weighted average over every marginal that observes
// the coefficient, computable with one small Walsh–Hadamard transform per
// marginal. The derivation survives per-marginal weights (noise variances
// differ across marginals but are constant within one), which keeps the
// Gram matrix diagonal; L2Weighted implements that generalized version.
//
// Coefficients travel as a dense slice aligned with the workload's
// FourierSupport, never as a map: every per-cell step indexes it through
// the workload's Fourier column index (marginal.Workload.FourierColumns),
// whose entry for released cell j of marginal i is the support column of
// the β packed at j. Walking that index in order visits the marginals in
// order and each marginal's subsets in ascending packed order — the order
// the sums always had — so the dense form is bit-identical to hashing the
// masks.
package consistency

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bits"
	"repro/internal/lp"
	"repro/internal/marginal"
	"repro/internal/par"
	"repro/internal/transform"
)

// Result carries the consistent marginal answers and the underlying Fourier
// coefficients.
type Result struct {
	// Coefficients holds f̂_β, the estimated Fourier coefficient of the
	// hidden data vector in the orthonormal basis, for every β of the
	// workload's FourierSupport: Coefficients[c] is the coefficient of
	// FourierSupport()[c].
	Coefficients []float64
	// Answers is the consistent concatenated answer vector R·f̂, aligned
	// with the workload's marginal order.
	Answers []float64
}

// L2 computes the unweighted least-squares consistent marginals.
func L2(w *marginal.Workload, noisy []float64) (*Result, error) {
	return L2Weighted(w, noisy, nil)
}

// L2Weighted computes weighted least-squares consistent marginals.
// weight[i] applies to every cell of marginal i (use 1/variance for
// GLS-style fusion); nil means all ones.
func L2Weighted(w *marginal.Workload, noisy []float64, weight []float64) (*Result, error) {
	return L2WeightedWorkers(w, noisy, weight, 0)
}

// L2WeightedWorkers is L2Weighted with an explicit worker bound: 0 uses
// all CPUs, 1 forces serial execution. weight[i] must be finite and
// non-negative; zero excludes marginal i from the fusion.
//
// The projection states the released cell count as its work. Below
// par.Grain cells per worker it runs serially; above it the two
// per-marginal phases split the marginal list into contiguous runs, each
// with a deterministic merge so the result is bit-identical at every
// worker count:
//
//  1. per-marginal small WHTs (the T_β transforms) — independent blocks,
//     each transform run serially inside its run;
//  2. the per-coefficient weighted average — always one serial
//     marginal-major sweep along the Fourier column index, so every
//     coefficient accumulates its contributions in ascending marginal
//     order, and within a marginal in ascending packed subset order;
//  3. reconstruction R·f̂ — independent per-marginal inverse transforms
//     writing disjoint slices of the answer vector.
//
// The coefficients come back as a slice aligned with w.FourierSupport().
// A coefficient observed only by zero-weighted marginals has no estimate;
// reconstructing a marginal that needs one fails with "coefficients
// missing".
func L2WeightedWorkers(w *marginal.Workload, noisy []float64, weight []float64, workers int) (*Result, error) {
	if len(noisy) != w.TotalCells() {
		return nil, fmt.Errorf("consistency: %d noisy values for %d cells", len(noisy), w.TotalCells())
	}
	if weight != nil && len(weight) != len(w.Marginals) {
		return nil, fmt.Errorf("consistency: %d weights for %d marginals", len(weight), len(w.Marginals))
	}
	for i, wi := range weight {
		if wi < 0 || math.IsNaN(wi) || math.IsInf(wi, 0) {
			return nil, fmt.Errorf("consistency: weight %v for marginal %d is not finite and non-negative", wi, i)
		}
	}
	workers = par.Workers(len(noisy), workers)
	d := w.D
	sqrtN := math.Sqrt(float64(int64(1) << uint(d)))
	offsets := w.Offsets()

	// Phase 1: transform every positively weighted marginal block.
	type transformed struct {
		buf      *[]float64 // pool token; nil when the marginal is excluded
		block    []float64
		numScale float64
		denTerm  float64
	}
	blocks := make([]transformed, len(w.Marginals))
	par.For(len(w.Marginals), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			m := w.Marginals[i]
			wi := 1.0
			if weight != nil {
				wi = weight[i]
			}
			if wi == 0 {
				continue // excluded from the fusion entirely
			}
			k := m.Order()
			cells := m.Cells()
			buf := blockPool.Get().(*[]float64)
			if cap(*buf) < cells {
				*buf = make([]float64, cells)
			}
			block := (*buf)[:cells]
			copy(block, noisy[offsets[i]:offsets[i]+cells])
			transform.WHTWorkers(block, 1)
			// block[packed β] = 2^{−k/2}·T_β, so T_β = 2^{k/2}·block.
			twoK := float64(int64(1) << uint(k))
			rCoef := sqrtN / twoK // 2^{d/2−k}
			blocks[i] = transformed{
				buf:      buf,
				block:    block,
				numScale: wi * rCoef * math.Sqrt(twoK), // w_i·2^{d/2−k}·2^{k/2}
				denTerm:  wi * (sqrtN * sqrtN) / twoK,  // w_i·2^{d−k}
			}
		}
	})

	// Phase 2: the per-coefficient weighted average, marginal-major: each
	// marginal's 2^k packed subsets are visited once, in order, so
	// coefficient β receives its contributions in ascending marginal order.
	support := w.FourierSupport()
	cols := w.FourierColumns()
	num := make([]float64, len(support))
	den := make([]float64, len(support))
	for i, tb := range blocks {
		if tb.block == nil {
			continue
		}
		for j, c := range cols[offsets[i] : offsets[i]+len(tb.block)] {
			num[c] += tb.numScale * tb.block[j]
			den[c] += tb.denTerm
		}
		// The transform scratch is dead once folded; recycle it for the
		// next release.
		blockPool.Put(tb.buf)
	}

	// A coefficient no positively weighted marginal observes keeps den = 0
	// and num = 0, its estimate undefined; evalAnswers refuses to read it.
	coeff := num
	for c := range coeff {
		if den[c] != 0 {
			coeff[c] = num[c] / den[c]
		}
	}

	answers, err := evalAnswers(w, coeff, den, workers)
	if err != nil {
		return nil, err
	}
	return &Result{Coefficients: coeff, Answers: answers}, nil
}

// evalAnswers reconstructs every marginal from the coefficients (aligned
// with w.FourierSupport()), splitting the independent per-marginal inverse
// transforms into contiguous runs of marginals (each writes its own
// disjoint slice of the concatenated answers). A marginal reading a
// coefficient whose observed weight is zero fails; observed == nil means
// every coefficient is observed. workers is already sized by par.Workers.
func evalAnswers(w *marginal.Workload, coeff, observed []float64, workers int) ([]float64, error) {
	answers := make([]float64, w.TotalCells())
	offsets := w.Offsets()
	cols := w.FourierColumns()
	errs := make([]error, len(w.Marginals))
	par.For(len(w.Marginals), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			m := w.Marginals[i]
			out := answers[offsets[i] : offsets[i]+m.Cells()]
			mcols := cols[offsets[i] : offsets[i]+m.Cells()]
			missing := false
			for j, c := range mcols {
				if observed != nil && observed[c] == 0 {
					missing = true
					break
				}
				out[j] = coeff[c]
			}
			if missing {
				errs[i] = fmt.Errorf("consistency: coefficients missing for marginal %v", m.Alpha)
				continue
			}
			transform.MarginalFromCoefficients(w.D, out)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// blockPool recycles the phase-1 transform scratch across calls: the blocks
// live only from their small WHT until the weighted average folds them, so
// one release's scratch serves the next — the -benchmem audit showed these
// per-marginal buffers dominating the consistency stage's allocation count.
var blockPool = sync.Pool{New: func() any { return new([]float64) }}

// RecoveryRows materialises the explicit K×|F| recovery matrix R of
// Section 4.3 (rows ordered like the concatenated answers, columns ordered
// like support), used by the LP formulations and available for tests.
func RecoveryRows(w *marginal.Workload, support []bits.Mask) [][]float64 {
	colOf := make(map[bits.Mask]int, len(support))
	for c, b := range support {
		colOf[b] = c
	}
	d := w.D
	sqrtN := math.Sqrt(float64(int64(1) << uint(d)))
	rows := make([][]float64, 0, w.TotalCells())
	for _, m := range w.Marginals {
		k := m.Order()
		rCoef := sqrtN / float64(int64(1)<<uint(k))
		for idx := 0; idx < m.Cells(); idx++ {
			gamma := bits.CellMask(m.Alpha, idx)
			row := make([]float64, len(support))
			m.Alpha.VisitSubsets(func(beta bits.Mask) {
				col, ok := colOf[beta]
				if !ok {
					panic(fmt.Sprintf("consistency: support misses β=%v", beta))
				}
				row[col] = rCoef * beta.Sign(gamma)
			})
			rows = append(rows, row)
		}
	}
	return rows
}

// L1 computes the consistent marginals minimising ‖R·f̂ − ỹ‖₁ via the LP of
// Section 4.3. Exact but cubic-ish in the workload size; prefer L2 at scale.
func L1(w *marginal.Workload, noisy []float64) (*Result, error) {
	return lpConsistency(w, noisy, false)
}

// LInf computes the consistent marginals minimising ‖R·f̂ − ỹ‖∞.
func LInf(w *marginal.Workload, noisy []float64) (*Result, error) {
	return lpConsistency(w, noisy, true)
}

func lpConsistency(w *marginal.Workload, noisy []float64, inf bool) (*Result, error) {
	if len(noisy) != w.TotalCells() {
		return nil, fmt.Errorf("consistency: %d noisy values for %d cells", len(noisy), w.TotalCells())
	}
	support := w.FourierSupport()
	rows := RecoveryRows(w, support)
	var (
		fhat []float64
		err  error
	)
	if inf {
		fhat, _, err = lp.MinimizeLInf(rows, noisy)
	} else {
		fhat, _, err = lp.MinimizeL1(rows, noisy)
	}
	if err != nil {
		return nil, fmt.Errorf("consistency: LP failed: %w", err)
	}
	answers, err := evalAnswers(w, fhat, nil, par.Workers(len(noisy), 0))
	if err != nil {
		return nil, err
	}
	return &Result{Coefficients: fhat, Answers: answers}, nil
}

// IsConsistent verifies that the concatenated answers are mutually
// consistent: every Fourier coefficient observed by several marginals must
// agree across them within tol. (Theorem 4.1 makes this equivalent to the
// existence of a common data vector when the total-count coefficient also
// agrees, which it is part of.)
func IsConsistent(w *marginal.Workload, answers []float64, tol float64) bool {
	if len(answers) != w.TotalCells() {
		return false
	}
	d := w.D
	sqrtN := math.Sqrt(float64(int64(1) << uint(d)))
	support := w.FourierSupport()
	cols := w.FourierColumns()
	seen := make([]float64, len(support))
	have := make([]bool, len(support))
	offsets := w.Offsets()
	for i, m := range w.Marginals {
		k := m.Order()
		cells := m.Cells()
		block := make([]float64, cells)
		copy(block, answers[offsets[i]:offsets[i]+cells])
		transform.WHT(block)
		twoK := float64(int64(1) << uint(k))
		// Invert the marginal→coefficient map: θ_β = 2^{k/2}·block/2^{d−k}
		// · 2^{d/2-k} … plainly: T_β = 2^{k/2}·block, θ_β = T_β/2^{d−k}·…
		// From (Cα)_γ = 2^{d/2−k} Σ_β (−1)^{⟨β,γ⟩}θ_β and WHT inversion:
		// θ_β = T_β / (2^k·2^{d/2−k}) = 2^{k/2}·block_β·2^{k−d/2}/2^k.
		coefScale := math.Sqrt(twoK) / (twoK * (sqrtN / twoK))
		for j, c := range cols[offsets[i] : offsets[i]+cells] {
			theta := coefScale * block[j]
			if !have[c] {
				seen[c], have[c] = theta, true
			} else if math.Abs(seen[c]-theta) > tol {
				return false
			}
		}
	}
	return true
}

// RoundNonNegativeInts clamps negative entries to zero and rounds to the
// nearest integer — the post-processing of the concluding remarks for
// materialised base counts. Returns a new slice.
func RoundNonNegativeInts(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		out[i] = math.Round(v)
	}
	return out
}

// Package recovery is the dense reference for Step 3 of the framework
// (Section 3.2): given the strategy S, the noisy answers z = Sx + ν with
// heteroscedastic noise Σ = diag(Var ν_i), and the query workload Q, the
// generalized least squares recovery is
//
//	R = Q(SᵀΣ⁻¹S)⁻¹SᵀΣ⁻¹,   y = R·z,
//
// the recovery matrix of equation (7). The resulting y is consistent and
// per-query minimum-variance unbiased (Lemma 3.5). For orthonormal
// strategies (Fourier, wavelet, identity) the unique recovery is R = QSᵀ
// regardless of Σ (Observation 1).
//
// The package is off the serving path: the engine recovers through each
// strategy's structured Plan.Recover and never forms S, Q or R. It builds
// R explicitly from dense row slices, which is affordable only for small
// domains, and serves two callers: experiments.IntroExample (the Section 1
// worked example) and the GLS oracle of internal/engine, which checks every
// plan's recovery, cell variances and the served consistency projection
// against R for d ≤ 6.
package recovery

import (
	"fmt"
	"math"
)

// weightsFromVariances converts per-row noise variances into GLS weights
// 1/σ²; rows with infinite variance (unanswered rows, ε_i = 0) get weight 0
// and are effectively dropped.
func weightsFromVariances(variances []float64) ([]float64, error) {
	w := make([]float64, len(variances))
	for i, v := range variances {
		switch {
		case math.IsInf(v, 1):
			w[i] = 0
		case v > 0:
			w[i] = 1 / v
		default:
			return nil, fmt.Errorf("recovery: row %d has non-positive variance %v", i, v)
		}
	}
	return w, nil
}

// Matrix computes the explicit recovery matrix R = Q(SᵀΣ⁻¹S)⁻¹SᵀΣ⁻¹
// (equation (7)) as q rows of m entries. qRows is q×N, sRows is m×N. Rows
// with infinite variance receive zero columns in R.
func Matrix(qRows, sRows [][]float64, variances []float64) ([][]float64, error) {
	if len(sRows) != len(variances) {
		return nil, fmt.Errorf("recovery: %d strategy rows, %d variances", len(sRows), len(variances))
	}
	w, err := weightsFromVariances(variances)
	if err != nil {
		return nil, err
	}
	s := fromRows(sRows)
	q := fromRows(qRows)
	if q.cols != s.cols {
		return nil, fmt.Errorf("recovery: Q has %d columns, S has %d", q.cols, s.cols)
	}
	n := s.cols

	// M = SᵀWS.
	ws := fromRows(sRows).scaleRows(w)
	m := s.t().mul(ws)
	// Factor M (ridge fallback keeps rank-deficient strategies solvable; the
	// perturbation is negligible against mechanism noise).
	ch, err := choleskyFactor(m)
	if err != nil {
		ridge := 1e-10 * (1 + m.maxAbs())
		for i := 0; i < n; i++ {
			m.data[i*n+i] += ridge
		}
		if ch, err = choleskyFactor(m); err != nil {
			return nil, fmt.Errorf("recovery: normal matrix not factorable: %w", err)
		}
	}
	// T = M⁻¹·Qᵀ  (N×q), then R = (W·S·T)ᵀ (q×m).
	t := ch.solveMatrix(q.t())
	st := s.mul(t)  // m×q
	st.scaleRows(w) // W·S·T
	return st.t().toRows(), nil
}

// QueryVariances returns Var(y_q) = Σ_j R_qj²·σ_j² for every query, given
// the per-strategy-row noise variances.
func QueryVariances(r [][]float64, variances []float64) []float64 {
	out := make([]float64, len(r))
	for i, row := range r {
		if len(row) != len(variances) {
			panic(fmt.Sprintf("recovery: R row %d has %d entries, %d variances", i, len(row), len(variances)))
		}
		s := 0.0
		for j, v := range row {
			if v == 0 {
				continue
			}
			s += v * v * variances[j]
		}
		out[i] = s
	}
	return out
}

// TotalVariance returns aᵀ·Var(y); a nil weight vector means a = 1.
func TotalVariance(r [][]float64, variances, a []float64) float64 {
	qv := QueryVariances(r, variances)
	total := 0.0
	for i, v := range qv {
		if a != nil {
			v *= a[i]
		}
		total += v
	}
	return total
}

// VerifyDecomposition checks Q = R·S within tol — the defining property of
// a valid strategy/recovery pair.
func VerifyDecomposition(qRows, r, sRows [][]float64, tol float64) error {
	q := fromRows(qRows)
	rs := fromRows(r).mul(fromRows(sRows))
	if !rs.equal(q, tol) {
		return fmt.Errorf("recovery: R·S differs from Q by more than %v (max diff %v)",
			tol, rs.sub(q).maxAbs())
	}
	return nil
}

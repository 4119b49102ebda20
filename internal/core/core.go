// Package core holds the data-independent side of the paper's mechanism:
// the Preview forecast of a configuration's error profile (Steps 1–2 plus
// the Step-3 variance accounting, without drawing noise or reading data),
// the Table-1 asymptotic error bounds, and the two per-marginal helpers
// they share with release code. Releases themselves run through the one
// engine entry, engine.(*Engine).RunVector.
package core

import (
	"math"

	"repro/internal/marginal"
)

// PerMarginal splits the concatenated answers into per-marginal tables.
func PerMarginal(w *marginal.Workload, answers []float64) [][]float64 {
	out := make([][]float64, len(w.Marginals))
	offsets := w.Offsets()
	for i, m := range w.Marginals {
		block := make([]float64, m.Cells())
		copy(block, answers[offsets[i]:offsets[i]+m.Cells()])
		out[i] = block
	}
	return out
}

// ExpectedAbsError returns the analytic expected L1 error per marginal,
// E‖Cαx − C̃αx‖₁ ≈ Σ_cells σ_cell·√(2/π), from the cell variances (exact
// for Gaussian noise, a very good approximation for the aggregated Laplace
// sums appearing here).
func ExpectedAbsError(w *marginal.Workload, cellVar []float64) []float64 {
	out := make([]float64, len(w.Marginals))
	for i, m := range w.Marginals {
		out[i] = float64(m.Cells()) * math.Sqrt(2*cellVar[i]/math.Pi)
	}
	return out
}

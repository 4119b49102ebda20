package strategy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/marginal"
	"repro/internal/transform"
)

// mapFourierRowWeights is the map-keyed Fourier recovery weight the dense
// column index replaced: each β ⪯ α_i finds its support column by hashing.
func mapFourierRowWeights(w *marginal.Workload, a []float64) []float64 {
	support := bits.UnionClosure(w.Masks())
	colOf := make(map[bits.Mask]int, len(support))
	for c, b := range support {
		colOf[b] = c
	}
	weights := make([]float64, len(support))
	for i, m := range w.Marginals {
		contrib := weightAt(a, i) * float64(int64(1)<<uint(w.D-m.Order()))
		m.Alpha.VisitSubsets(func(beta bits.Mask) {
			weights[colOf[beta]] += contrib
		})
	}
	return weights
}

// mapFourierRecoverMarginal is the map-keyed Fourier recovery of marginal
// i, kept as a reference: a per-marginal coefficient map filled by hashing
// β, Theorem 4.1 evaluated from the map (zero, place at bits.CellIndex,
// transform, scale).
func mapFourierRecoverMarginal(w *marginal.Workload, i int, z []float64, groupVar []float64) ([]float64, float64) {
	support := bits.UnionClosure(w.Masks())
	colOf := make(map[bits.Mask]int, len(support))
	for c, b := range support {
		colOf[b] = c
	}
	d := w.D
	m := w.Marginals[i]
	coeff := make(map[bits.Mask]float64, m.Cells())
	sum := 0.0
	m.Alpha.VisitSubsets(func(beta bits.Mask) {
		coeff[beta] = z[colOf[beta]]
		sum += groupVar[colOf[beta]]
	})
	out := make([]float64, m.Cells())
	m.Alpha.VisitSubsets(func(beta bits.Mask) {
		out[bits.CellIndex(m.Alpha, beta)] = coeff[beta]
	})
	transform.WHT(out)
	scale := math.Sqrt(float64(int64(1) << uint(d-m.Order())))
	for j := range out {
		out[j] *= scale
	}
	return out, math.Pow(2, float64(d-2*m.Order())) * sum
}

// TestFourierMatchesMapOracle: over random workloads (d 1–16, orders 0–4,
// duplicate marginals) and unit, random and partly zero query weights, the
// Fourier plan's row weights, per-marginal recovery and serial Recover
// equal the map-keyed reference bit for bit.
func TestFourierMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		d := 1 + rng.Intn(16)
		var masks []bits.Mask
		for n := 1 + rng.Intn(12); len(masks) < n; {
			if len(masks) > 0 && rng.Intn(4) == 0 {
				masks = append(masks, masks[rng.Intn(len(masks))])
				continue
			}
			m := bits.Mask(0)
			for order := rng.Intn(min(4, d) + 1); m.Count() < order; {
				m |= 1 << uint(rng.Intn(d))
			}
			masks = append(masks, m)
		}
		w := marginal.MustWorkload(d, masks)
		a := make([]float64, len(masks))
		for i := range a {
			if rng.Intn(3) > 0 {
				a[i] = rng.Float64() * 3
			}
		}
		for _, weights := range [][]float64{nil, a} {
			plan, err := Fourier{}.PlanWeighted(w, weights)
			if err != nil {
				t.Fatal(err)
			}
			want := mapFourierRowWeights(w, weights)
			for c, spec := range plan.Specs {
				if math.Float64bits(spec.RowWeight) != math.Float64bits(want[c]) {
					t.Fatalf("trial %d: row weight %d = %v, oracle %v", trial, c, spec.RowWeight, want[c])
				}
			}
			z := make([]float64, plan.Rows())
			groupVar := make([]float64, plan.Rows())
			for c := range z {
				z[c] = rng.NormFloat64() * 50
				groupVar[c] = rng.Float64() * 10
			}
			answers, cellVar, err := plan.Recover(z, groupVar)
			if err != nil {
				t.Fatal(err)
			}
			at := 0
			for i := range w.Marginals {
				wantCells, wantVar := mapFourierRecoverMarginal(w, i, z, groupVar)
				cells, cv, err := plan.RecoverMarginal(i, z, groupVar)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(cv) != math.Float64bits(wantVar) || math.Float64bits(cellVar[i]) != math.Float64bits(wantVar) {
					t.Fatalf("trial %d marginal %d: variance %v (Recover %v), oracle %v", trial, i, cv, cellVar[i], wantVar)
				}
				for j, v := range wantCells {
					if math.Float64bits(cells[j]) != math.Float64bits(v) || math.Float64bits(answers[at+j]) != math.Float64bits(v) {
						t.Fatalf("trial %d marginal %d cell %d: %v (Recover %v), oracle %v",
							trial, i, j, cells[j], answers[at+j], v)
					}
				}
				at += len(wantCells)
			}
		}
	}
}

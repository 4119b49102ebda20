package consistency

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/marginal"
	"repro/internal/par"
	"repro/internal/transform"
)

// mapL2Weighted is the map-keyed weighted L2 projection the dense column
// index replaced, kept as a reference: coefficients live in a
// map[bits.Mask]float64, each cell finds its coefficient by hashing β and
// its packed index by bits.CellIndex, and reconstruction fills each
// marginal from the map. It runs serially; L2WeightedWorkers must match it
// bit for bit at every worker count.
func mapL2Weighted(w *marginal.Workload, noisy, weight []float64) (map[bits.Mask]float64, []float64, error) {
	d := w.D
	sqrtN := math.Sqrt(float64(int64(1) << uint(d)))
	offsets := w.Offsets()
	support := bits.UnionClosure(w.Masks())
	colOf := make(map[bits.Mask]int, len(support))
	for c, b := range support {
		colOf[b] = c
	}
	num := make([]float64, len(support))
	den := make([]float64, len(support))
	for i, m := range w.Marginals {
		wi := 1.0
		if weight != nil {
			wi = weight[i]
		}
		if wi == 0 {
			continue
		}
		k := m.Order()
		block := append([]float64(nil), noisy[offsets[i]:offsets[i]+m.Cells()]...)
		transform.WHTWorkers(block, 1)
		twoK := float64(int64(1) << uint(k))
		numScale := wi * (sqrtN / twoK) * math.Sqrt(twoK)
		denTerm := wi * (sqrtN * sqrtN) / twoK
		m.Alpha.VisitSubsets(func(beta bits.Mask) {
			c := colOf[beta]
			num[c] += numScale * block[bits.CellIndex(m.Alpha, beta)]
			den[c] += denTerm
		})
	}
	coeff := make(map[bits.Mask]float64, len(support))
	for c, beta := range support {
		if den[c] != 0 {
			coeff[beta] = num[c] / den[c]
		}
	}
	answers := make([]float64, w.TotalCells())
	for i, m := range w.Marginals {
		missing := false
		m.Alpha.VisitSubsets(func(beta bits.Mask) {
			if _, ok := coeff[beta]; !ok {
				missing = true
			}
		})
		if missing {
			return nil, nil, fmt.Errorf("consistency: coefficients missing for marginal %v", m.Alpha)
		}
		mapMarginalFromCoefficients(d, m.Alpha, coeff, answers[offsets[i]:offsets[i]+m.Cells()])
	}
	return coeff, answers, nil
}

// mapMarginalFromCoefficients is Theorem 4.1 over a coefficient map: zero
// the packed table, place θ_β at bits.CellIndex(α, β), transform, scale.
func mapMarginalFromCoefficients(d int, alpha bits.Mask, coeff map[bits.Mask]float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	alpha.VisitSubsets(func(beta bits.Mask) {
		out[bits.CellIndex(alpha, beta)] = coeff[beta]
	})
	transform.WHT(out)
	scale := math.Sqrt(float64(int64(1) << uint(d-alpha.Count())))
	for i := range out {
		out[i] *= scale
	}
}

// randomOracleWorkload draws a workload over d attributes with at least
// count marginals and minCells released cells: orders 0–4 (capped at d),
// about a quarter of the marginals repeats of an earlier mask.
func randomOracleWorkload(rng *rand.Rand, d, count, minCells int) *marginal.Workload {
	var masks []bits.Mask
	for cells := 0; len(masks) < count || cells < minCells; {
		m := bits.Mask(0)
		if len(masks) > 0 && rng.Intn(4) == 0 {
			m = masks[rng.Intn(len(masks))]
		} else {
			for order := rng.Intn(min(4, d) + 1); m.Count() < order; {
				m |= 1 << uint(rng.Intn(d))
			}
		}
		masks = append(masks, m)
		cells += 1 << uint(m.Count())
	}
	return marginal.MustWorkload(d, masks)
}

// TestL2WeightedMatchesMapOracle: over random workloads — d 1–16, orders
// 0–4, duplicate marginals, unit, random and partly zero weights, and
// released-cell counts on both sides of par.Grain — the dense projection
// returns the map oracle's answers and coefficients bit for bit at workers
// 1, 2 and 8, and fails with the oracle's error exactly when a
// zero-weighted marginal leaves a coefficient unobserved.
func TestL2WeightedMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	type tc struct {
		d, count, minCells int
	}
	var cases []tc
	for i := 0; i < 120; i++ {
		cases = append(cases, tc{d: 1 + rng.Intn(16), count: 1 + rng.Intn(12)})
	}
	// Workloads at d = 16 whose cell counts straddle the grain and twice
	// the grain, where two workers first fork.
	for _, cells := range []int{par.Grain - 8, par.Grain + 1, 2*par.Grain - 8, 2*par.Grain + 1, 3 * par.Grain} {
		cases = append(cases, tc{d: 16, count: 1, minCells: cells})
	}
	failures := 0
	for ci, c := range cases {
		w := randomOracleWorkload(rng, c.d, c.count, c.minCells)
		noisy := make([]float64, w.TotalCells())
		for i := range noisy {
			noisy[i] = rng.NormFloat64() * 100
		}
		weighted := make([]float64, len(w.Marginals))
		zeroed := make([]float64, len(w.Marginals))
		for i := range weighted {
			weighted[i] = 0.1 + rng.Float64()
			zeroed[i] = weighted[i]
			if rng.Intn(3) == 0 {
				zeroed[i] = 0
			}
		}
		for _, weight := range [][]float64{nil, weighted, zeroed} {
			wantCoeff, wantAns, wantErr := mapL2Weighted(w, noisy, weight)
			for _, workers := range []int{1, 2, 8} {
				got, err := L2WeightedWorkers(w, noisy, weight, workers)
				if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("case %d workers=%d: error %v, oracle %v", ci, workers, err, wantErr)
				}
				if err != nil {
					failures++
					continue
				}
				for i, v := range wantAns {
					if math.Float64bits(got.Answers[i]) != math.Float64bits(v) {
						t.Fatalf("case %d workers=%d: answer %d = %v, oracle %v", ci, workers, i, got.Answers[i], v)
					}
				}
				support := w.FourierSupport()
				if len(got.Coefficients) != len(support) || len(wantCoeff) != len(support) {
					t.Fatalf("case %d workers=%d: %d coefficients, oracle %d, support %d",
						ci, workers, len(got.Coefficients), len(wantCoeff), len(support))
				}
				for col, beta := range support {
					if math.Float64bits(got.Coefficients[col]) != math.Float64bits(wantCoeff[beta]) {
						t.Fatalf("case %d workers=%d: coefficient %v = %v, oracle %v",
							ci, workers, beta, got.Coefficients[col], wantCoeff[beta])
					}
				}
			}
		}
	}
	if failures == 0 {
		t.Fatal("no case exercised the missing-coefficient error")
	}
}

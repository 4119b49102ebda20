package strategy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/marginal"
	"repro/internal/vector"
)

// TestFourierSparseMatchesWHT: on the sparse form, Fourier's S·x taken from
// the workload marginals equals the 2^d transform of the same counts held
// dense, bit for bit — for d 1–20, marginals of orders 0–4 reaching α bits
// at and above 16, the empty vector, a single count, and counts whose
// total sits just below 2^53.
func TestFourierSparseMatchesWHT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for d := 1; d <= 20; d++ {
		n := 1 << uint(d)
		var alphas []bits.Mask
		for k := 0; k <= min(4, d); k++ {
			var a bits.Mask
			if d > 16 && k > 0 {
				a |= 1 << uint(16+rng.Intn(d-16))
			}
			for a.Count() < k {
				a |= 1 << uint(rng.Intn(d))
			}
			alphas = append(alphas, a)
		}
		w := marginal.MustWorkload(d, alphas)
		plan, err := Fourier{}.Plan(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, nnz := range []int{0, 1, 1 + rng.Intn(max(1, n/16))} {
			x := make([]float64, n)
			for placed := 0; placed < nnz; {
				if c := rng.Intn(n); x[c] == 0 {
					x[c] = float64(1 + rng.Intn(1000))
					placed++
				}
			}
			if nnz > 0 && d%3 == 0 {
				// One huge count: the total stays just below 2^53.
				for c := range x {
					if x[c] != 0 {
						x[c] = 1<<53 - 1 - 1000*float64(nnz)
						break
					}
				}
			}
			var cells []int32
			var vals []float64
			for c, v := range x {
				if v != 0 {
					cells, vals = append(cells, int32(c)), append(vals, v)
				}
			}
			sp, err := vector.NewSparse(n, vector.DefaultBlockLen, cells, vals)
			if err != nil {
				t.Fatal(err)
			}
			got := plan.TrueAnswers(sp, 1)
			want := plan.TrueAnswers(vector.FromDense(x).CloneBlockLen(vector.DefaultBlockLen), 2)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("d=%d nnz=%d: coefficient %d = %v from marginals, %v from the transform", d, nnz, i, got[i], want[i])
				}
			}
		}
	}
}

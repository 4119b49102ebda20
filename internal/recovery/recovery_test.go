package recovery

import (
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/budget"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/transform"
)

const tol = 1e-8

func introWorkload() *marginal.Workload {
	return marginal.MustWorkload(3, []bits.Mask{0b100, 0b110})
}

func TestMatrixReproducesQ(t *testing.T) {
	w := introWorkload()
	q := w.Rows()
	s := q // S = Q
	variances := []float64{1, 1, 2, 2, 2, 2}
	r, err := Matrix(q, s, variances)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDecomposition(q, r, s, 1e-7); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateXExactWhenNoiseFree(t *testing.T) {
	// With z = Sx exactly, the GLS estimate x̂ has Qx̂ = Qx; R·z is Qx̂.
	w := introWorkload()
	q := w.Rows()
	x := []float64{1, 2, 0, 1, 0, 0, 1, 0}
	s := q
	z := mulVec(s, x)
	r, err := Matrix(q, s, []float64{1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	got, want := mulVec(r, z), mulVec(q, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("query %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestIntroWorkedExampleGLS reproduces the final step of the Section 1
// example: with S = Q, non-uniform budgets (4ε/9, 5ε/9) and the GLS
// recovery, the total variance drops to ≤ 34.6/ε² (the paper's hand-rolled
// recovery achieves exactly 34.6; GLS is at least as good), improving on
// the uniform 48/ε².
func TestIntroWorkedExampleGLS(t *testing.T) {
	w := introWorkload()
	q := w.Rows()
	s := q
	eps := 1.0

	// Non-uniform budgets from Step 2.
	g, err := budget.FindGrouping(s)
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{1, 1, 1, 1, 1, 1}
	p := noise.Params{Type: noise.PureDP, Epsilon: eps, Neighbor: noise.AddRemove}
	alloc, err := budget.Optimal(g, weights, p)
	if err != nil {
		t.Fatal(err)
	}
	variances := make([]float64, len(alloc.PerRow))
	for i, e := range alloc.PerRow {
		variances[i] = p.RowVariance(e)
	}

	r, err := Matrix(q, s, variances)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDecomposition(q, r, s, 1e-7); err != nil {
		t.Fatal(err)
	}
	total := TotalVariance(r, variances, nil)
	if total > 34.62 {
		t.Fatalf("GLS total variance %v must be ≤ the paper's hand recovery 34.6", total)
	}
	if total < 25 {
		t.Fatalf("GLS total variance %v suspiciously low — check privacy accounting", total)
	}
	// And strictly better than keeping R fixed at the trivial recovery
	// (R = I on S = Q), which costs 46.17.
	if total >= 46.16 {
		t.Fatalf("GLS gave no improvement: %v", total)
	}
	t.Logf("intro example: uniform 48, non-uniform fixed-R 46.17, GLS %v (per ε²)", total)
}

func TestQueryVariancesKnown(t *testing.T) {
	// R = [[1, 0.5], [0, 0]], variances [4, 8] → Var(y) = [4 + 0.25·8, 0].
	qv := QueryVariances([][]float64{{1, 0.5}, {0, 0}}, []float64{4, 8})
	if math.Abs(qv[0]-6) > tol || qv[1] != 0 {
		t.Fatalf("QueryVariances = %v, want [6 0]", qv)
	}
}

// hadamard returns the full orthonormal Hadamard basis of a d-bit domain,
// one row per Fourier coefficient.
func hadamard(d int) [][]float64 {
	s := make([][]float64, 1<<uint(d))
	for a := range s {
		s[a] = transform.HadamardRow(d, bits.Mask(a))
	}
	return s
}

// qsT returns Q·Sᵀ, the Observation-1 recovery of an orthonormal S.
func qsT(q, s [][]float64) [][]float64 {
	out := make([][]float64, len(q))
	for i := range q {
		out[i] = mulVec(s, q[i])
	}
	return out
}

func TestOrthonormalFourierRecovery(t *testing.T) {
	// With S = full Hadamard basis, the GLS recovery satisfies Q = RS and
	// is Observation 1's QSᵀ.
	d := 4
	s := hadamard(d)
	q := marginal.AllKWay(d, 1).Rows()
	variances := make([]float64, len(s))
	for i := range variances {
		variances[i] = 1
	}
	r, err := Matrix(q, s, variances)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDecomposition(q, r, s, 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDecomposition(q, qsT(q, s), s, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestGLSMatchesOrthonormalForUniformNoise(t *testing.T) {
	// For an orthonormal invertible S the GLS recovery equals QSᵀ whatever
	// the noise variances (Observation 1: the recovery is unique).
	d := 3
	s := hadamard(d)
	q := marginal.AllKWay(d, 1).Rows()
	variances := make([]float64, len(s))
	for i := range variances {
		variances[i] = 0.5 + float64(i%3) // deliberately non-uniform
	}
	gls, err := Matrix(q, s, variances)
	if err != nil {
		t.Fatal(err)
	}
	if !fromRows(gls).equal(fromRows(qsT(q, s)), 1e-7) {
		t.Fatal("GLS recovery must equal QSᵀ for invertible orthonormal S")
	}
}

func TestGLSDownweightsNoisyRows(t *testing.T) {
	// Two copies of the same scalar query; the cleaner row should dominate.
	q := [][]float64{{1}}
	s := [][]float64{{1}, {1}}
	r, err := Matrix(q, s, []float64{1, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal blend: weights ∝ 1/var → 0.9, 0.1.
	if math.Abs(r[0][0]-0.9) > 1e-9 || math.Abs(r[0][1]-0.1) > 1e-9 {
		t.Fatalf("GLS blend = [%v %v], want [0.9 0.1]", r[0][0], r[0][1])
	}
	qv := QueryVariances(r, []float64{1, 9})
	if math.Abs(qv[0]-0.9) > 1e-9 { // 0.81·1 + 0.01·9 = 0.9
		t.Fatalf("blended variance %v, want 0.9", qv[0])
	}
}

func TestInfiniteVarianceRowsDropped(t *testing.T) {
	q := [][]float64{{1}}
	s := [][]float64{{1}, {1}}
	r, err := Matrix(q, s, []float64{2, math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if r[0][1] != 0 {
		t.Fatalf("infinite-variance row must get zero recovery weight, got %v", r[0][1])
	}
	if math.Abs(r[0][0]-1) > 1e-9 {
		t.Fatalf("remaining row weight %v, want 1", r[0][0])
	}
}

func TestEstimateUnbiasedEmpirically(t *testing.T) {
	// Monte-Carlo check of Lemma 3.5: E[y] = Qx.
	w := introWorkload()
	q := w.Rows()
	s := q
	x := []float64{1, 2, 0, 1, 0, 0, 1, 0}
	truth := make([]float64, len(q))
	for i, row := range q {
		for j, v := range row {
			truth[i] += v * x[j]
		}
	}
	variances := []float64{2, 2, 4, 4, 4, 4}
	r, err := Matrix(q, s, variances)
	if err != nil {
		t.Fatal(err)
	}
	src := noise.NewSource(3)
	const trials = 20000
	sums := make([]float64, len(q))
	for tr := 0; tr < trials; tr++ {
		z := make([]float64, len(s))
		for i, row := range s {
			for j, v := range row {
				z[i] += v * x[j]
			}
			z[i] += src.Gaussian(math.Sqrt(variances[i]))
		}
		y := mulVec(r, z)
		for i := range sums {
			sums[i] += y[i]
		}
	}
	for i := range sums {
		mean := sums[i] / trials
		if math.Abs(mean-truth[i]) > 0.1 {
			t.Fatalf("query %d biased: mean %v, truth %v", i, mean, truth[i])
		}
	}
}

func TestEmpiricalVarianceMatchesAnalytic(t *testing.T) {
	w := introWorkload()
	q := w.Rows()
	s := q
	x := []float64{1, 2, 0, 1, 0, 0, 1, 0}
	variances := []float64{2, 2, 4, 4, 4, 4}
	r, err := Matrix(q, s, variances)
	if err != nil {
		t.Fatal(err)
	}
	analytic := QueryVariances(r, variances)
	src := noise.NewSource(4)
	const trials = 40000
	sumSq := make([]float64, len(q))
	truth := make([]float64, len(q))
	for i, row := range q {
		for j, v := range row {
			truth[i] += v * x[j]
		}
	}
	for tr := 0; tr < trials; tr++ {
		z := make([]float64, len(s))
		for i, row := range s {
			for j, v := range row {
				z[i] += v * x[j]
			}
			z[i] += src.Gaussian(math.Sqrt(variances[i]))
		}
		y := mulVec(r, z)
		for i := range y {
			d := y[i] - truth[i]
			sumSq[i] += d * d
		}
	}
	for i := range sumSq {
		got := sumSq[i] / trials
		if math.Abs(got-analytic[i])/analytic[i] > 0.06 {
			t.Fatalf("query %d: empirical var %v vs analytic %v", i, got, analytic[i])
		}
	}
}

func TestMatrixInputValidation(t *testing.T) {
	if _, err := Matrix([][]float64{{1}}, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("variance length mismatch accepted")
	}
	if _, err := Matrix([][]float64{{1, 0}}, [][]float64{{1}}, []float64{1}); err == nil {
		t.Error("column mismatch accepted")
	}
	if _, err := Matrix([][]float64{{1}}, [][]float64{{1}}, []float64{-1}); err == nil {
		t.Error("negative variance accepted")
	}
}

func BenchmarkGLSRecovery(b *testing.B) {
	d := 6
	w := marginal.AllKWay(d, 2)
	q := w.Rows()
	s := q
	variances := make([]float64, len(s))
	for i := range variances {
		variances[i] = 1 + float64(i%4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Matrix(q, s, variances); err != nil {
			b.Fatal(err)
		}
	}
}

// mulVec returns m·v for a matrix given as rows.
func mulVec(m [][]float64, v []float64) []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		for j, x := range row {
			out[i] += x * v[j]
		}
	}
	return out
}

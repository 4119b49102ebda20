package consistency

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/recovery"
	"repro/internal/transform"
)

// overlapping workload: marginals over {0,1}, {1,2}, {0,2} share 1-way
// coefficients, so inconsistent noise is actually repaired.
func overlapWorkload() *marginal.Workload {
	return marginal.MustWorkload(3, []bits.Mask{0b011, 0b110, 0b101})
}

func randX(rng *rand.Rand, d int) []float64 {
	x := make([]float64, 1<<uint(d))
	for i := range x {
		x[i] = float64(rng.Intn(6))
	}
	return x
}

func TestL2ExactOnCleanInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := overlapWorkload()
	x := randX(rng, w.D)
	truth := w.Eval(x)
	res, err := L2(w, truth)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(res.Answers[i]-truth[i]) > 1e-8 {
			t.Fatalf("clean input changed at %d: %v vs %v", i, res.Answers[i], truth[i])
		}
	}
	// Coefficients must match the true Fourier coefficients of x.
	theta := transform.WHTCopy(x)
	for c, beta := range w.FourierSupport() {
		if v := res.Coefficients[c]; math.Abs(v-theta[beta]) > 1e-8 {
			t.Fatalf("coefficient %v: %v vs %v", beta, v, theta[beta])
		}
	}
}

func TestL2OutputIsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := overlapWorkload()
	x := randX(rng, w.D)
	noisy := w.Eval(x)
	src := noise.NewSource(3)
	for i := range noisy {
		noisy[i] += src.Laplace(2)
	}
	if IsConsistent(w, noisy, 1e-6) {
		t.Fatal("noisy input should be inconsistent (sanity)")
	}
	res, err := L2(w, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if !IsConsistent(w, res.Answers, 1e-6) {
		t.Fatal("L2 output is not consistent")
	}
}

func TestL2MatchesGenericLeastSquares(t *testing.T) {
	// The closed form must agree with the dense least-squares projection
	// onto consistent marginals: the GLS recovery R = Q(QᵀQ)⁻¹Qᵀ of the
	// strategy S = Q under unit noise.
	rng := rand.New(rand.NewSource(4))
	w := overlapWorkload()
	x := randX(rng, w.D)
	noisy := w.Eval(x)
	src := noise.NewSource(5)
	for i := range noisy {
		noisy[i] += src.Laplace(1.5)
	}
	res, err := L2(w, noisy)
	if err != nil {
		t.Fatal(err)
	}
	q := w.Rows()
	ones := make([]float64, len(q))
	for i := range ones {
		ones[i] = 1
	}
	r, err := recovery.Matrix(q, q, ones)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r {
		want := 0.0
		for j, v := range row {
			want += v * noisy[j]
		}
		if math.Abs(want-res.Answers[i]) > 1e-7 {
			t.Fatalf("cell %d: closed form %v vs dense GLS %v", i, res.Answers[i], want)
		}
	}
}

// recoveryRows materialises the explicit K×|F| recovery matrix R of
// Section 4.3: rows ordered like the concatenated answers, columns like the
// workload's FourierSupport. Cell γ of marginal α reads every β ⪯ α with
// weight 2^{d/2−‖α‖}·(−1)^{⟨β,γ⟩}; the column of the β packed at index p is
// the workload's Fourier column index at that cell.
func recoveryRows(w *marginal.Workload) [][]float64 {
	sqrtN := math.Sqrt(float64(int64(1) << uint(w.D)))
	support := w.FourierSupport()
	cols := w.FourierColumns()
	offsets := w.Offsets()
	rows := make([][]float64, 0, w.TotalCells())
	for i, m := range w.Marginals {
		rCoef := sqrtN / float64(m.Cells())
		mcols := cols[offsets[i] : offsets[i]+m.Cells()]
		for idx := 0; idx < m.Cells(); idx++ {
			gamma := bits.CellMask(m.Alpha, idx)
			row := make([]float64, len(support))
			for p, c := range mcols {
				row[c] = rCoef * bits.CellMask(m.Alpha, p).Sign(gamma)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func TestL2GramMatrixIsDiagonal(t *testing.T) {
	// The structural fact the closed form rests on.
	w := overlapWorkload()
	rows := recoveryRows(w)
	n := len(w.FourierSupport())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g := 0.0
			for _, row := range rows {
				g += row[i] * row[j]
			}
			if i != j && math.Abs(g) > 1e-9 {
				t.Fatalf("RᵀR not diagonal at (%d,%d): %v", i, j, g)
			}
			if i == j && g <= 0 {
				t.Fatalf("RᵀR diagonal entry %d not positive", i)
			}
		}
	}
}

func TestL2WeightedPrefersLowNoiseMarginal(t *testing.T) {
	// Two identical marginals with conflicting observations: the consistent
	// answer must sit closer to the heavily weighted one.
	w := marginal.MustWorkload(2, []bits.Mask{0b01, 0b01})
	noisy := []float64{10, 0, 20, 0} // marginal 1 says [10,0], marginal 2 says [20,0]
	res, err := L2WeightedWorkers(w, noisy, []float64{9, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := (9*10.0 + 1*20.0) / 10.0
	if math.Abs(res.Answers[0]-want) > 1e-8 {
		t.Fatalf("weighted fusion = %v, want %v", res.Answers[0], want)
	}
	// Both output blocks must agree (consistency).
	if math.Abs(res.Answers[0]-res.Answers[2]) > 1e-8 {
		t.Fatal("identical marginals must receive identical consistent answers")
	}
}

func TestL2PreservesTotalCountAveraging(t *testing.T) {
	// The ∅ coefficient is the total count; the consistent answer averages
	// the per-marginal totals.
	w := marginal.MustWorkload(2, []bits.Mask{0b01, 0b10})
	noisy := []float64{6, 2, 3, 3} // totals 8 and 6
	res, err := L2(w, noisy)
	if err != nil {
		t.Fatal(err)
	}
	t1 := res.Answers[0] + res.Answers[1]
	t2 := res.Answers[2] + res.Answers[3]
	if math.Abs(t1-7) > 1e-8 || math.Abs(t2-7) > 1e-8 {
		t.Fatalf("totals %v and %v, want 7 and 7", t1, t2)
	}
}

// TestErrorAtMostDoubles verifies the triangle-inequality guarantee of
// Section 3.3: ‖y1 − y0‖ ≤ ‖y0 − Qx‖, so ‖y1 − Qx‖ ≤ 2‖y0 − Qx‖.
func TestErrorAtMostDoubles(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		w := overlapWorkload()
		x := randX(rng, w.D)
		truth := w.Eval(x)
		noisy := append([]float64(nil), truth...)
		src := noise.NewSource(int64(100 + trial))
		for i := range noisy {
			noisy[i] += src.Laplace(2)
		}
		res, err := L2(w, noisy)
		if err != nil {
			t.Fatal(err)
		}
		norm := func(a, b []float64) float64 {
			s := 0.0
			for i := range a {
				dd := a[i] - b[i]
				s += dd * dd
			}
			return math.Sqrt(s)
		}
		if norm(res.Answers, truth) > 2*norm(noisy, truth)+1e-9 {
			t.Fatalf("trial %d: consistency more than doubled the L2 error: %v vs %v",
				trial, norm(res.Answers, truth), norm(noisy, truth))
		}
	}
}

// Consistency typically *reduces* error when marginals overlap (information
// is fused); check it does on average.
func TestConsistencyReducesErrorOnOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := overlapWorkload()
	x := randX(rng, w.D)
	truth := w.Eval(x)
	src := noise.NewSource(12)
	better := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		noisy := append([]float64(nil), truth...)
		for i := range noisy {
			noisy[i] += src.Laplace(2)
		}
		res, err := L2(w, noisy)
		if err != nil {
			t.Fatal(err)
		}
		en, ec := 0.0, 0.0
		for i := range truth {
			en += math.Abs(noisy[i] - truth[i])
			ec += math.Abs(res.Answers[i] - truth[i])
		}
		if ec < en {
			better++
		}
	}
	if better < trials*3/4 {
		t.Fatalf("consistency reduced error in only %d/%d trials", better, trials)
	}
}

func TestIsConsistentDetectsTamper(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := overlapWorkload()
	x := randX(rng, w.D)
	truth := w.Eval(x)
	if !IsConsistent(w, truth, 1e-9) {
		t.Fatal("true marginals flagged inconsistent")
	}
	truth[0] += 1
	if IsConsistent(w, truth, 1e-6) {
		t.Fatal("tampered marginals flagged consistent")
	}
}

func TestInputValidation(t *testing.T) {
	w := overlapWorkload()
	if _, err := L2(w, make([]float64, 3)); err == nil {
		t.Error("short input accepted")
	}
	if _, err := L2WeightedWorkers(w, make([]float64, w.TotalCells()), []float64{1}, 0); err == nil {
		t.Error("short weights accepted")
	}
	if _, err := L2WeightedWorkers(w, make([]float64, w.TotalCells()), []float64{-1, 1, 1}, 0); err == nil {
		t.Error("negative weight accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := L2WeightedWorkers(w, make([]float64, w.TotalCells()), []float64{1, v, 1}, 0); err == nil {
			t.Errorf("weight %v accepted", v)
		}
	}
}

func BenchmarkL2ConsistencyNLTCSQ2Size(b *testing.B) {
	// d=16, all 2-way marginals: 120 marginals, 480 cells, |F|=137.
	w := marginal.AllKWay(16, 2)
	noisy := make([]float64, w.TotalCells())
	rng := rand.New(rand.NewSource(14))
	for i := range noisy {
		noisy[i] = rng.Float64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := L2(w, noisy); err != nil {
			b.Fatal(err)
		}
	}
}

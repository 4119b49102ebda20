package consistency

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/linalg"
	"repro/internal/marginal"
	"repro/internal/noise"
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
	// The closed form must agree with a brute-force LS solve of
	// min ‖R·f − ỹ‖₂ over the explicit recovery matrix.
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
	support := w.FourierSupport()
	rows := RecoveryRows(w, support)
	fhat, err := linalg.LeastSquares(linalg.FromRows(rows), noisy)
	if err != nil {
		t.Fatal(err)
	}
	for c, beta := range support {
		if math.Abs(fhat[c]-res.Coefficients[c]) > 1e-7 {
			t.Fatalf("β=%v: closed form %v vs generic LS %v", beta, res.Coefficients[c], fhat[c])
		}
	}
}

func TestL2GramMatrixIsDiagonal(t *testing.T) {
	// The structural fact the closed form rests on.
	w := overlapWorkload()
	support := w.FourierSupport()
	rows := RecoveryRows(w, support)
	r := linalg.FromRows(rows)
	gram := r.T().Mul(r)
	for i := 0; i < gram.Rows; i++ {
		for j := 0; j < gram.Cols; j++ {
			if i != j && math.Abs(gram.At(i, j)) > 1e-9 {
				t.Fatalf("RᵀR not diagonal at (%d,%d): %v", i, j, gram.At(i, j))
			}
			if i == j && gram.At(i, j) <= 0 {
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
	res, err := L2Weighted(w, noisy, []float64{9, 1})
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

func TestL1AndLInfProduceConsistentOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := marginal.MustWorkload(3, []bits.Mask{0b011, 0b110})
	x := randX(rng, w.D)
	noisy := w.Eval(x)
	src := noise.NewSource(7)
	for i := range noisy {
		noisy[i] += src.Laplace(1)
	}
	for name, fn := range map[string]func(*marginal.Workload, []float64) (*Result, error){
		"L1": L1, "LInf": LInf,
	} {
		res, err := fn(w, noisy)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !IsConsistent(w, res.Answers, 1e-6) {
			t.Fatalf("%s output inconsistent", name)
		}
	}
}

func TestL1ObjectiveBeatsL2OnL1Metric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := marginal.MustWorkload(3, []bits.Mask{0b011, 0b110, 0b101})
	x := randX(rng, w.D)
	noisy := w.Eval(x)
	src := noise.NewSource(9)
	for i := range noisy {
		noisy[i] += src.Laplace(3)
	}
	l1res, err := L1(w, noisy)
	if err != nil {
		t.Fatal(err)
	}
	l2res, err := L2(w, noisy)
	if err != nil {
		t.Fatal(err)
	}
	l1 := func(a []float64) float64 {
		s := 0.0
		for i := range a {
			s += math.Abs(a[i] - noisy[i])
		}
		return s
	}
	if l1(l1res.Answers) > l1(l2res.Answers)+1e-6 {
		t.Fatalf("L1 program (%v) must not lose to L2 (%v) on the L1 metric",
			l1(l1res.Answers), l1(l2res.Answers))
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

func TestRoundNonNegativeInts(t *testing.T) {
	in := []float64{-2.3, 0.4, 1.5, 7.9}
	out := RoundNonNegativeInts(in)
	want := []float64{0, 0, 2, 8}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("RoundNonNegativeInts = %v, want %v", out, want)
		}
	}
	if in[0] != -2.3 {
		t.Fatal("input must not be modified")
	}
}

func TestInputValidation(t *testing.T) {
	w := overlapWorkload()
	if _, err := L2(w, make([]float64, 3)); err == nil {
		t.Error("short input accepted")
	}
	if _, err := L2Weighted(w, make([]float64, w.TotalCells()), []float64{1}); err == nil {
		t.Error("short weights accepted")
	}
	if _, err := L2Weighted(w, make([]float64, w.TotalCells()), []float64{-1, 1, 1}); err == nil {
		t.Error("negative weight accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := L2Weighted(w, make([]float64, w.TotalCells()), []float64{1, v, 1}); err == nil {
			t.Errorf("weight %v accepted", v)
		}
	}
	if _, err := L1(w, make([]float64, 1)); err == nil {
		t.Error("short input accepted by L1")
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

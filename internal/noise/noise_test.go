package noise

import (
	"math"
	"testing"
)

func TestLaplaceMoments(t *testing.T) {
	s := NewSource(1)
	const n = 200000
	const b = 2.0
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Laplace(b)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	want := 2 * b * b
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("Laplace variance = %v, want ~%v", variance, want)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	s := NewSource(2)
	for i := 0; i < 10; i++ {
		if v := s.Laplace(0); v != 0 {
			t.Fatalf("Laplace(0) = %v, want 0", v)
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	s := NewSource(3)
	const n = 200000
	const sigma = 3.0
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Gaussian(sigma)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Gaussian mean = %v", mean)
	}
	if math.Abs(variance-sigma*sigma)/(sigma*sigma) > 0.05 {
		t.Errorf("Gaussian variance = %v, want ~%v", variance, sigma*sigma)
	}
}

func TestLaplaceSymmetry(t *testing.T) {
	s := NewSource(4)
	pos := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Laplace(1) > 0 {
			pos++
		}
	}
	frac := float64(pos) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("positive fraction = %v, want ~0.5", frac)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := NewSource(99), NewSource(99)
	for i := 0; i < 100; i++ {
		if a.Laplace(1) != b.Laplace(1) {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewSource(99)
	d := NewSource(100)
	same := true
	for i := 0; i < 10; i++ {
		if c.Laplace(1) != d.Laplace(1) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewSource(5)
	child := parent.Split()
	// Parent stream continues; child is a distinct but deterministic stream.
	parent2 := NewSource(5)
	child2 := parent2.Split()
	for i := 0; i < 50; i++ {
		if child.Laplace(1) != child2.Laplace(1) {
			t.Fatal("Split must be deterministic")
		}
	}
}

func TestNeighborModel(t *testing.T) {
	if AddRemove.Factor() != 1 || Modify.Factor() != 2 {
		t.Fatal("neighbour factors wrong")
	}
	if AddRemove.String() == Modify.String() {
		t.Fatal("String collision")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{Type: PureDP, Epsilon: 0.5}).Validate(); err != nil {
		t.Errorf("valid pure DP rejected: %v", err)
	}
	if err := (Params{Type: PureDP, Epsilon: 0}).Validate(); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if err := (Params{Type: ApproxDP, Epsilon: 1, Delta: 0}).Validate(); err == nil {
		t.Error("delta 0 accepted for approx DP")
	}
	if err := (Params{Type: ApproxDP, Epsilon: 1, Delta: 1e-6}).Validate(); err != nil {
		t.Errorf("valid approx DP rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Params{
		{Type: PureDP, Epsilon: nan},
		{Type: PureDP, Epsilon: inf},
		{Type: ApproxDP, Epsilon: nan, Delta: 1e-6},
		{Type: ApproxDP, Epsilon: inf, Delta: 1e-6},
		{Type: ApproxDP, Epsilon: 1, Delta: nan},
		{Type: ApproxDP, Epsilon: 1, Delta: inf},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("non-finite %+v accepted", p)
		}
	}
}

func TestEffectiveEpsilon(t *testing.T) {
	p := Params{Epsilon: 1, Neighbor: Modify}
	if p.EffectiveEpsilon() != 0.5 {
		t.Fatalf("effective epsilon = %v, want 0.5", p.EffectiveEpsilon())
	}
	p.Neighbor = AddRemove
	if p.EffectiveEpsilon() != 1 {
		t.Fatalf("effective epsilon = %v, want 1", p.EffectiveEpsilon())
	}
}

func TestRowVarianceLaplace(t *testing.T) {
	p := Params{Type: PureDP, Epsilon: 1}
	if got := p.RowVariance(0.5); math.Abs(got-8) > 1e-12 {
		t.Fatalf("RowVariance = %v, want 8", got)
	}
	if !math.IsInf(p.RowVariance(0), 1) {
		t.Fatal("zero budget must give infinite variance")
	}
}

func TestRowVarianceGaussian(t *testing.T) {
	p := Params{Type: ApproxDP, Epsilon: 1, Delta: 0.01}
	want := 2 * math.Log(200.0)
	if got := p.RowVariance(1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RowVariance = %v, want %v", got, want)
	}
}

func TestRowNoiseEmpiricalVariance(t *testing.T) {
	for _, p := range []Params{
		{Type: PureDP, Epsilon: 1},
		{Type: ApproxDP, Epsilon: 1, Delta: 1e-5},
	} {
		s := NewSource(7)
		const n = 100000
		epsI := 0.7
		want := p.RowVariance(epsI)
		sumSq := 0.0
		for i := 0; i < n; i++ {
			v := p.RowNoise(s, epsI)
			sumSq += v * v
		}
		got := sumSq / n
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%v: empirical row variance %v, want ~%v", p.Type, got, want)
		}
	}
}

// TestLaplaceMechanismUnbiased: the Laplace mechanism of Theorem 2.1, as
// the engine applies it (answer plus RowNoise at the row budget ε/Δ₁), is
// unbiased.
func TestLaplaceMechanismUnbiased(t *testing.T) {
	s := NewSource(8)
	p := Params{Type: PureDP, Epsilon: 1}
	answers := []float64{100, 200}
	const n = 50000
	sums := make([]float64, 2)
	for i := 0; i < n; i++ {
		for j, a := range answers {
			sums[j] += a + p.RowNoise(s, 1)
		}
	}
	for i, a := range answers {
		if math.Abs(sums[i]/n-a) > 0.1 {
			t.Errorf("mechanism biased at %d: %v vs %v", i, sums[i]/n, a)
		}
	}
}

// TestGaussianMechanismVariance: RowNoise at the row budget ε/Δ₂ has the
// variance 2·Δ₂²·ln(2/δ)/ε² of the Gaussian mechanism (Theorem 2.2).
func TestGaussianMechanismVariance(t *testing.T) {
	s := NewSource(9)
	const n = 100000
	eps, delta, sens := 1.0, 1e-4, 2.0
	p := Params{Type: ApproxDP, Epsilon: eps, Delta: delta}
	want := 2 * sens * sens * math.Log(2/delta) / (eps * eps)
	sumSq := 0.0
	for i := 0; i < n; i++ {
		v := p.RowNoise(s, eps/sens)
		sumSq += v * v
	}
	got := sumSq / n
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("Gaussian mechanism variance %v, want ~%v", got, want)
	}
}

func TestMechanismPanics(t *testing.T) {
	s := NewSource(10)
	assertPanics(t, func() { s.Laplace(-1) })
	assertPanics(t, func() { s.Gaussian(-1) })
	p := Params{Type: PureDP, Epsilon: 1}
	assertPanics(t, func() { p.RowNoise(s, 0) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func BenchmarkLaplace(b *testing.B) {
	s := NewSource(11)
	for i := 0; i < b.N; i++ {
		_ = s.Laplace(1)
	}
}

func BenchmarkGaussian(b *testing.B) {
	s := NewSource(12)
	for i := 0; i < b.N; i++ {
		_ = s.Gaussian(1)
	}
}

func TestReseedBitIdenticalToFreshSubstream(t *testing.T) {
	// A reused Source repositioned with Reseed must reproduce exactly the
	// draws of a fresh NewSubstream — across sampler types, which verifies
	// that no sampler keeps cached state between draws.
	reused := NewSubstream(0, 0)
	for _, master := range []int64{0, 1, -9, 1 << 40} {
		for _, index := range []uint64{0, 1, 7, 1 << 33} {
			fresh := NewSubstream(master, index)
			reused.Reseed(master, index)
			for i := 0; i < 64; i++ {
				a, b := fresh.Gaussian(1.5), reused.Gaussian(1.5)
				if i%2 == 1 {
					a, b = fresh.Laplace(0.5), reused.Laplace(0.5)
				}
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("master=%d index=%d draw %d: fresh %x vs reseeded %x",
						master, index, i, math.Float64bits(a), math.Float64bits(b))
				}
			}
		}
	}
}

func TestReseedPanicsOnPlainSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSource(1).Reseed(0, 0)
}

func TestReseedAllocFree(t *testing.T) {
	s := NewSubstream(3, 0)
	allocs := testing.AllocsPerRun(100, func() {
		s.Reseed(3, 7)
		_ = s.Gaussian(1)
	})
	if allocs != 0 {
		t.Fatalf("Reseed+Gaussian allocates %v per run, want 0", allocs)
	}
}

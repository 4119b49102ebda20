package transform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/par"
)

const tol = 1e-10

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestWHTInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 16, 256, 1024} {
		x := randomVec(rng, n)
		orig := append([]float64(nil), x...)
		WHT(x)
		WHT(x)
		for i := range x {
			if math.Abs(x[i]-orig[i]) > tol {
				t.Fatalf("n=%d: WHT not an involution at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestWHTPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomVec(rng, 512)
	before := 0.0
	for _, v := range x {
		before += v * v
	}
	WHT(x)
	after := 0.0
	for _, v := range x {
		after += v * v
	}
	if math.Abs(before-after) > 1e-8 {
		t.Fatalf("WHT not orthonormal: %v vs %v", before, after)
	}
}

func TestWHTMatchesHadamardRow(t *testing.T) {
	// WHT(x)[α] must equal ⟨f^α, x⟩.
	rng := rand.New(rand.NewSource(3))
	d := 5
	n := 1 << d
	x := randomVec(rng, n)
	fx := WHTCopy(x)
	for alpha := 0; alpha < n; alpha++ {
		row := HadamardRow(d, bits.Mask(alpha))
		dot := 0.0
		for i := range row {
			dot += row[i] * x[i]
		}
		if math.Abs(fx[alpha]-dot) > tol {
			t.Fatalf("coefficient %d: %v vs %v", alpha, fx[alpha], dot)
		}
	}
}

func TestWHTKnownSmall(t *testing.T) {
	// For x = e_0 of length 2: WHT = (1/√2, 1/√2).
	x := []float64{1, 0}
	WHT(x)
	w := 1 / math.Sqrt2
	if math.Abs(x[0]-w) > tol || math.Abs(x[1]-w) > tol {
		t.Fatalf("WHT(e0) = %v", x)
	}
}

func TestWHTPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WHT(make([]float64, 3))
}

func TestHadamardEntry(t *testing.T) {
	d := 3
	want := 1 / math.Sqrt(8)
	if got := HadamardEntry(d, 0b101, 0b010); math.Abs(got-want) > tol {
		t.Fatalf("entry = %v, want %v", got, want)
	}
	if got := HadamardEntry(d, 0b101, 0b100); math.Abs(got+want) > tol {
		t.Fatalf("entry = %v, want %v", got, -want)
	}
}

func TestHaarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 8, 64, 256} {
		x := randomVec(rng, n)
		orig := append([]float64(nil), x...)
		Haar(x)
		HaarInverse(x)
		for i := range x {
			if math.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: Haar round trip failed at %d", n, i)
			}
		}
	}
}

func TestHaarOrthonormal(t *testing.T) {
	n := 16
	h := HaarMatrix(n)
	// HᵀH = I.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dot := 0.0
			for k := 0; k < n; k++ {
				dot += h[k][i] * h[k][j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("HᵀH[%d][%d] = %v, want %v", i, j, dot, want)
			}
		}
	}
}

func TestHaarDCCoefficient(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	Haar(x)
	if math.Abs(x[0]-2) > tol { // n^{-1/2}·Σ = 4/2 = 2
		t.Fatalf("Haar DC = %v, want 2", x[0])
	}
	for i := 1; i < 4; i++ {
		if math.Abs(x[i]) > tol {
			t.Fatalf("detail %d = %v, want 0", i, x[i])
		}
	}
}

func TestHaarLevel(t *testing.T) {
	want := map[int]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 15: 4}
	for i, lvl := range want {
		if got := HaarLevel(i); got != lvl {
			t.Errorf("HaarLevel(%d) = %d, want %d", i, got, lvl)
		}
	}
}

func TestHierarchyAnswer(t *testing.T) {
	h := NewHierarchy(4)
	out := h.Answer([]float64{1, 2, 3, 4})
	// Heap: root=10, internal: 3, 7; leaves 1,2,3,4.
	if out[0] != 10 || out[1] != 3 || out[2] != 7 {
		t.Fatalf("hierarchy sums wrong: %v", out)
	}
	if out[3] != 1 || out[4] != 2 || out[5] != 3 || out[6] != 4 {
		t.Fatalf("leaves wrong: %v", out)
	}
}

func TestHierarchyPadding(t *testing.T) {
	h := NewHierarchy(5)
	if h.N != 8 || h.Rows() != 15 || h.Levels != 4 {
		t.Fatalf("padding wrong: N=%d rows=%d levels=%d", h.N, h.Rows(), h.Levels)
	}
	out := h.Answer([]float64{1, 1, 1, 1, 1})
	if out[0] != 5 {
		t.Fatalf("padded root = %v, want 5", out[0])
	}
}

func TestHierarchyLevel(t *testing.T) {
	h := NewHierarchy(8)
	wants := map[int]int{0: 0, 1: 1, 2: 1, 3: 2, 6: 2, 7: 3, 14: 3}
	for node, lvl := range wants {
		if got := h.Level(node); got != lvl {
			t.Errorf("Level(%d) = %d, want %d", node, got, lvl)
		}
	}
}

func TestRangeDecomposition(t *testing.T) {
	h := NewHierarchy(8)
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	sums := h.Answer(x)
	for lo := 0; lo <= 8; lo++ {
		for hi := lo; hi <= 8; hi++ {
			nodes := h.RangeDecomposition(lo, hi)
			got := 0.0
			for _, nd := range nodes {
				got += sums[nd]
			}
			want := 0.0
			for i := lo; i < hi; i++ {
				want += x[i]
			}
			if math.Abs(got-want) > tol {
				t.Fatalf("range [%d,%d): got %v, want %v (nodes %v)", lo, hi, got, want, nodes)
			}
			if len(nodes) > 2*4 {
				t.Fatalf("range [%d,%d) uses %d nodes, more than 2·log(N)", lo, hi, len(nodes))
			}
		}
	}
}

func TestMarginalFromCoefficients(t *testing.T) {
	// Build a random x over d=5, compute marginal Cα directly and via
	// Theorem 4.1 from its packed Fourier coefficients.
	rng := rand.New(rand.NewSource(5))
	d := 5
	n := 1 << d
	x := randomVec(rng, n)
	theta := WHTCopy(x)
	for _, alpha := range []bits.Mask{0b00000, 0b00001, 0b01010, 0b11111, 0b10110} {
		got := make([]float64, 0, 1<<uint(alpha.Count()))
		alpha.VisitSubsets(func(b bits.Mask) { got = append(got, theta[b]) })
		MarginalFromCoefficients(d, got)
		// Direct marginal.
		want := make([]float64, 1<<uint(alpha.Count()))
		for gamma := 0; gamma < n; gamma++ {
			cell := bits.CellIndex(alpha, bits.Mask(gamma)&alpha)
			want[cell] += x[gamma]
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("α=%v cell %d: got %v, want %v", alpha, i, got[i], want[i])
			}
		}
	}
}

// TestMarginalFromCoefficientsShapePanics: a packed slice that is not the
// 2^k cells of a marginal over at most d attributes is refused.
func TestMarginalFromCoefficientsShapePanics(t *testing.T) {
	for _, tc := range []struct{ d, cells int }{{3, 0}, {3, 3}, {3, 6}, {3, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("d=%d, %d packed coefficients: expected a panic", tc.d, tc.cells)
				}
			}()
			MarginalFromCoefficients(tc.d, make([]float64, tc.cells))
		}()
	}
}

func BenchmarkWHT64K(b *testing.B) {
	x := make([]float64, 1<<16)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WHT(x)
	}
}

func BenchmarkMarginalFromCoefficients(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	d := 16
	coeff := make([]float64, 1<<4)
	for i := range coeff {
		coeff[i] = rng.NormFloat64()
	}
	packed := make([]float64, len(coeff))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(packed, coeff)
		MarginalFromCoefficients(d, packed)
	}
}

// whtButterfliesNaive is the textbook ascending-h triple loop — the
// reference dataflow order the cache-blocked radix-4 kernel must reproduce
// bit-for-bit.
func whtButterfliesNaive(x []float64) {
	n := len(x)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
}

func TestWHTKernelBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Sizes below, at, and above the cache block, covering both parities of
	// the cross-tile stage count (radix-4 pairing vs trailing radix-2).
	sizes := []int{1, 2, 4, 8, 64, 1 << 10, 1 << 12,
		whtCacheBlock >> 1, whtCacheBlock, whtCacheBlock << 1,
		1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 20}
	for _, n := range sizes {
		ref := randomVec(rng, n)
		want := append([]float64(nil), ref...)
		whtButterfliesNaive(want)
		got := append([]float64(nil), ref...)
		whtButterflies(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: kernel bit mismatch at %d: %x vs %x",
					n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// BenchmarkWHTKernel1M pins the ISSUE 6 acceptance criterion: the
// cache-blocked radix-4 butterfly must show a measurable speedup over the
// naive triple loop at 2^20 cells.
func BenchmarkWHTKernel1M(b *testing.B) {
	for _, k := range whtKernel1M() {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
	}
}

// whtArm is one named kernel run.
type whtArm struct {
	name string
	run  func()
}

// whtKernel1M returns the arms of BenchmarkWHTKernel1M: each copies one
// random 2^20-cell vector into a buffer and runs a butterfly network over
// it in place.
func whtKernel1M() []whtArm {
	rng := rand.New(rand.NewSource(11))
	src := randomVec(rng, 1<<20)
	buf := make([]float64, len(src))
	return []whtArm{
		{"naive", func() { copy(buf, src); whtButterfliesNaive(buf) }},
		{"blocked", func() { copy(buf, src); whtButterflies(buf) }},
	}
}

func TestWHTParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Sizes straddling the parallel threshold, worker counts straddling the
	// CPU count and non-power-of-two values: every combination must be
	// bit-identical to the serial transform.
	for _, n := range []int{1 << 10, par.Grain, 2 * par.Grain, 4 * par.Grain, 1 << 16, 1 << 18} {
		ref := randomVec(rng, n)
		serial := append([]float64(nil), ref...)
		WHTWorkers(serial, 1)
		for _, workers := range []int{0, 2, 3, 4, 7, 16, 64} {
			x := append([]float64(nil), ref...)
			WHTWorkers(x, workers)
			for i := range x {
				if x[i] != serial[i] {
					t.Fatalf("n=%d workers=%d: bit mismatch at %d: %x vs %x",
						n, workers, i, math.Float64bits(x[i]), math.Float64bits(serial[i]))
				}
			}
		}
	}
}

func TestWHTParallelInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 1 << 16
	x := randomVec(rng, n)
	orig := append([]float64(nil), x...)
	WHTWorkers(x, 8)
	WHTWorkers(x, 3)
	for i := range x {
		if math.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("parallel WHT not an involution at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

// BenchmarkWHTSerialVsParallel quantifies the satellite claim that the WHT
// is the serial bottleneck of the Fourier strategy's TrueAnswers: compare
// wht/serial to wht/parallel at the domain sizes a release actually hits.
func BenchmarkWHTSerialVsParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range []int{16, 18, 20} {
		src := randomVec(rng, 1<<uint(d))
		buf := make([]float64, len(src))
		b.Run(fmt.Sprintf("d=%d/serial", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				WHTWorkers(buf, 1)
			}
		})
		b.Run(fmt.Sprintf("d=%d/parallel", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				WHTWorkers(buf, 0)
			}
		})
	}
}

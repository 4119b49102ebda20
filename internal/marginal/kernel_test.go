package marginal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/dataset"
	"repro/internal/vector"
)

// The oracle: the per-cell loop the blocked kernel replaced. It visits the
// domain in ascending order and adds every non-zero cell into the output
// cell its CellIndex names — the package's accumulation-order contract
// written out in its most literal form.
func oracleRange(w *Workload, x *vector.Blocked, lo, hi int) []float64 {
	out := make([]float64, hi-lo)
	x.Visit(func(gamma int, v float64) {
		if v == 0 {
			return
		}
		off := 0
		for _, m := range w.Marginals {
			if idx := off + bits.CellIndex(m.Alpha, bits.Mask(gamma)&m.Alpha); idx >= lo && idx < hi {
				out[idx-lo] += v
			}
			off += m.Cells()
		}
	})
	return out
}

// kernelValues fills n cells with the awkward floats: zeros of both signs,
// subnormals, ±1e300 (whose sums overflow to ±Inf and, mixed, to NaN),
// small integers and ordinary reals. Only one cell in spread is drawn at
// all, so spread > vector.SparseRatio exercises the kernel's sparse path.
func kernelValues(rng *rand.Rand, n, spread int) []float64 {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 1e300, -1e300}
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(spread) != 0 {
			continue
		}
		switch r := rng.Intn(10); {
		case r < 3:
			x[i] = special[rng.Intn(len(special))]
		case r < 6:
			x[i] = float64(rng.Intn(5))
		default:
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	return x
}

// kernelCounts fills n cells with non-negative integer counts, one cell in
// spread non-zero on average: the values the sparse form may hold.
func kernelCounts(rng *rand.Rand, n, spread int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(spread) == 0 {
			x[i] = float64(1 + rng.Intn(1000))
		}
	}
	return x
}

// sparseForm returns x in the sparse form, or false when x holds a value
// the form refuses (a fraction, a negative or a signed zero).
func sparseForm(x []float64) (*vector.Blocked, bool) {
	var cells []int32
	var vals []float64
	for i, v := range x {
		if math.Float64bits(v) != 0 {
			cells, vals = append(cells, int32(i)), append(vals, v)
		}
	}
	sp, err := vector.NewSparse(len(x), 1<<16, cells, vals)
	return sp, err == nil
}

// layout is x under one block layout.
type layout struct {
	name string
	x    *vector.Blocked
}

// kernelLayouts returns x under several block layouts: one dense block, an
// even split into three, blocks of 300 cells (not a power of two, with an
// uneven final block) and, for large x, the store's 2^16-cell shards.
func kernelLayouts(t testing.TB, x []float64) []layout {
	three := vector.New(len(x), 3)
	three.Scatter(x)
	var slices [][]float64
	for lo := 0; lo < len(x); lo += 300 {
		slices = append(slices, x[lo:min(lo+300, len(x))])
	}
	odd, err := vector.FromSlices(slices)
	if err != nil {
		t.Fatal(err)
	}
	out := []layout{{"dense", vector.FromDense(x)}, {"thirds", three}, {"300", odd}}
	if len(x) > 1<<16 {
		out = append(out, layout{"store", vector.FromDense(x).CloneBlockLen(1 << 16)})
	}
	if sp, ok := sparseForm(x); ok {
		out = append(out, layout{"sparse", sp})
	}
	return out
}

// kernelWorkload draws marginals of orders 0–4 over d bits; at d > 16 every
// marginal of order ≥ 2 includes a bit at or above 16, so α reaches into
// every byte of γ.
func kernelWorkload(rng *rand.Rand, d int) *Workload {
	var alphas []bits.Mask
	for k := 0; k <= min(4, d); k++ {
		for rep := 0; rep < 2; rep++ {
			var a bits.Mask
			if d > 16 && k >= 2 {
				a |= 1 << uint(16+rng.Intn(d-16))
			}
			for a.Count() < k {
				a |= 1 << uint(rng.Intn(d))
			}
			alphas = append(alphas, a)
		}
	}
	return MustWorkload(d, alphas)
}

func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %v (%#x), oracle %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkKernel compares every entry point against the oracle on one vector.
func checkKernel(t testing.TB, w *Workload, x []float64, rng *rand.Rand) {
	t.Helper()
	total := w.TotalCells()
	want := oracleRange(w, vector.FromDense(x), 0, total)
	sameBits(t, "EvalSinglePass", w.EvalSinglePass(x), want)
	sameBits(t, "Eval", w.Eval(x), want)
	off := 0
	for _, m := range w.Marginals {
		sameBits(t, "Marginal.Eval", m.Eval(x), want[off:off+m.Cells()])
		off += m.Cells()
	}
	for _, l := range kernelLayouts(t, x) {
		sameBits(t, l.name+"/EvalSinglePassVector", w.EvalSinglePassVector(l.x), want)
		off := 0
		for _, m := range w.Marginals {
			sameBits(t, l.name+"/EvalVector", m.EvalVector(l.x), want[off:off+m.Cells()])
			off += m.Cells()
		}
		for rep := 0; rep < 3; rep++ {
			lo := rng.Intn(total)
			hi := lo + 1 + rng.Intn(total-lo)
			out := make([]float64, hi-lo)
			for i := range out {
				out[i] = math.NaN() // EvalRangeVector overwrites out
			}
			w.EvalRangeVector(l.x, lo, hi, out)
			sameBits(t, l.name+"/EvalRangeVector", out, want[lo:hi])
		}
	}
}

// TestMarginalKernelOracle: every entry point of the blocked kernel equals
// the per-cell oracle bit for bit, for d from 1 to 20, orders 0–4 and every
// block layout, including the sparse form on count vectors.
func TestMarginalKernelOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for d := 1; d <= 20; d++ {
		for _, spread := range []int{1, 4 * vector.SparseRatio} {
			checkKernel(t, kernelWorkload(rng, d), kernelValues(rng, 1<<uint(d), spread), rng)
			checkKernel(t, kernelWorkload(rng, d), kernelCounts(rng, 1<<uint(d), spread), rng)
		}
	}
}

// FuzzMarginalKernel drives the oracle comparison from fuzzed dimensions,
// masks, value seeds, densities, block lengths and row ranges, and checks
// the marginal split across 1, 2 and 3 workers on the dense, blocked and
// sparse forms. The seeds index cells through one, two and five bit runs
// (the sparse path's unrolled and looped index).
func FuzzMarginalKernel(f *testing.F) {
	const fiveRuns = 0b1011_0101_1001
	if n := len(runsOf(fiveRuns, nil)); n != 5 {
		f.Fatalf("mask %b has %d runs, want 5", fiveRuns, n)
	}
	f.Add(uint8(8), uint32(0b1010_0110), int64(1), uint8(1), uint16(300), uint16(5), uint16(9))
	f.Add(uint8(12), uint32(0xf01), int64(2), uint8(100), uint16(1000), uint16(0), uint16(16))
	f.Add(uint8(3), uint32(0), int64(3), uint8(1), uint16(1), uint16(0), uint16(1))
	f.Add(uint8(11), uint32(fiveRuns), int64(4), uint8(20), uint16(700), uint16(3), uint16(40))
	f.Fuzz(func(t *testing.T, d uint8, mask uint32, seed int64, spread uint8, blockLen uint16, lo, span uint16) {
		dim := 1 + int(d)%12
		alpha := bits.Mask(mask) & bits.Full(dim)
		w := MustWorkload(dim, []bits.Mask{alpha, alpha >> 1, alpha & (alpha - 1)})
		rng := rand.New(rand.NewSource(seed))
		x := kernelValues(rng, 1<<uint(dim), 1+int(spread))
		want := oracleRange(w, vector.FromDense(x), 0, w.TotalCells())
		bl := 1 + int(blockLen)%len(x)
		var slices [][]float64
		for i := 0; i < len(x); i += bl {
			slices = append(slices, x[i:min(i+bl, len(x))])
		}
		bv, err := vector.FromSlices(slices)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "EvalSinglePassVector", w.EvalSinglePassVector(bv), want)
		sameBits(t, "EvalVector", w.Marginals[0].EvalVector(bv), want[:w.Marginals[0].Cells()])
		a := int(lo) % len(want)
		b := a + 1 + int(span)%(len(want)-a)
		out := make([]float64, b-a)
		w.EvalRangeVector(bv, a, b, out)
		sameBits(t, "EvalRangeVector", out, want[a:b])
		for workers := 1; workers <= 3; workers++ {
			sameBits(t, fmt.Sprintf("dense/evalSplit/%d", workers), w.evalSplit(vector.FromDense(x), workers), want)
			sameBits(t, fmt.Sprintf("blocked/evalSplit/%d", workers), w.evalSplit(bv, workers), want)
		}

		counts := kernelCounts(rng, len(x), 1+int(spread))
		sp, ok := sparseForm(counts)
		if !ok {
			t.Fatal("counts refused by the sparse form")
		}
		want = oracleRange(w, vector.FromDense(counts), 0, w.TotalCells())
		sameBits(t, "sparse/EvalSinglePassVector", w.EvalSinglePassVector(sp), want)
		w.EvalRangeVector(sp, a, b, out)
		sameBits(t, "sparse/EvalRangeVector", out, want[a:b])
		for workers := 1; workers <= 3; workers++ {
			sameBits(t, fmt.Sprintf("sparse/evalSplit/%d", workers), w.evalSplit(sp, workers), want)
		}
	})
}

// BenchmarkMarginalKernel times the kernel on the two release paths that
// run it, at d = 16 on the NLTCS-shaped table: identity recovery (one
// EvalVector per marginal of Q2 over the dense noisy base counts, as the
// per-marginal recover stage does) and the exact single-pass answers of the
// sparse true counts for Q2 and Q3 (a cluster plan's S·x).
func BenchmarkMarginalKernel(b *testing.B) {
	tab := dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount)
	x, err := tab.Vector()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	noisy := make([]float64, len(x))
	for i, v := range x {
		noisy[i] = v + rng.NormFloat64()*4
	}
	q2 := SchemaKWay(tab.Schema, 2)
	b.Run("identity-recover-q2", func(b *testing.B) {
		z := vector.FromDense(noisy)
		for b.Loop() {
			for _, m := range q2.Marginals {
				m.EvalVector(z)
			}
		}
	})
	for _, k := range []int{2, 3} {
		w := SchemaKWay(tab.Schema, k)
		b.Run(fmt.Sprintf("single-pass-exact-q%d", k), func(b *testing.B) {
			xv := vector.FromDense(x)
			b.ReportAllocs()
			for b.Loop() {
				w.EvalSinglePassVector(xv)
			}
		})
	}
}

package marginal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vector"
)

// TestBlockedEvalBitIdentity: EvalVector / EvalSinglePassVector /
// EvalRangeVector reproduce their dense counterparts bit-for-bit at every
// block count and range tiling.
func TestBlockedEvalBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := 8
	n := 1 << uint(d)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(7)) * rng.Float64()
	}
	w := AllKWay(d, 2)
	wantAll := w.EvalSinglePass(x)
	for _, blocks := range []int{1, 3, 8, 64} {
		bv := vector.New(n, blocks)
		bv.Scatter(x)
		gotAll := w.EvalSinglePassVector(bv)
		for i := range wantAll {
			if math.Float64bits(gotAll[i]) != math.Float64bits(wantAll[i]) {
				t.Fatalf("blocks=%d: EvalSinglePassVector differs at %d", blocks, i)
			}
		}
		for _, m := range w.Marginals[:5] {
			want := m.Eval(x)
			got := m.EvalVector(bv)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("blocks=%d: EvalVector(%v) differs at %d", blocks, m.Alpha, i)
				}
			}
		}
		// Tile the concatenated answers with uneven ranges.
		for _, step := range []int{1, 7, 64, w.TotalCells()} {
			tiled := make([]float64, w.TotalCells())
			for lo := 0; lo < len(tiled); lo += step {
				hi := lo + step
				if hi > len(tiled) {
					hi = len(tiled)
				}
				w.EvalRangeVector(bv, lo, hi, tiled[lo:hi])
			}
			for i := range wantAll {
				if math.Float64bits(tiled[i]) != math.Float64bits(wantAll[i]) {
					t.Fatalf("blocks=%d step=%d: EvalRangeVector tiling differs at %d", blocks, step, i)
				}
			}
		}
	}
}

// TestAllocCeilingEvalRangeVector pins the regression the -benchmem audit
// caught: EvalRangeVector runs once per shard block, and used to allocate an
// Offsets() slice plus append-grown scratch on every call. The kernel keeps
// all of its state on the stack, so a call allocates nothing — on
// BenchmarkEvalRangeVector's input in its 256-cell tiles, and on dense and
// sparse counts in 64-cell tiles.
func TestAllocCeilingEvalRangeVector(t *testing.T) {
	w := AllKWay(12, 2)
	n := 1 << w.D
	rng := rand.New(rand.NewSource(31))
	type input struct {
		name string
		x    *vector.Blocked
		tile int
	}
	inputs := []input{{"bench", benchRangeVector(w.D), 256}}
	// Dense counts take the lockstep path, one non-zero in 64 the sparse one.
	for _, nonZero := range []int{1, 64} {
		x := vector.NewBlockLen(n, 1<<10)
		for i := 0; i < n; i++ {
			if rng.Intn(nonZero) == 0 {
				x.Set(i, float64(1+rng.Intn(5)))
			}
		}
		inputs = append(inputs, input{fmt.Sprintf("one non-zero in %d", nonZero), x, 64})
	}
	total := w.TotalCells()
	for _, in := range inputs {
		out := make([]float64, in.tile)
		allocs := testing.AllocsPerRun(20, func() {
			for lo := 0; lo < total; lo += len(out) {
				hi := min(lo+len(out), total)
				w.EvalRangeVector(in.x, lo, hi, out[:hi-lo])
			}
		})
		if allocs > 0 {
			t.Fatalf("%s: EvalRangeVector allocates %v per tiling, ceiling 0", in.name, allocs)
		}
	}
}

// BenchmarkEvalRangeVector measures the per-shard-block answer slicing; run
// with -benchmem — allocs/op must stay at zero
// (TestAllocCeilingEvalRangeVector).
func BenchmarkEvalRangeVector(b *testing.B) {
	w := AllKWay(12, 2)
	x := benchRangeVector(w.D)
	total := w.TotalCells()
	out := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo := (i * 256) % total
		hi := lo + 256
		if hi > total {
			hi = total
		}
		w.EvalRangeVector(x, lo, hi, out[:hi-lo])
	}
}

// benchRangeVector is BenchmarkEvalRangeVector's input: counts 0–4 over
// 2^d cells in blocks of 2^10.
func benchRangeVector(d int) *vector.Blocked {
	n := 1 << d
	x := vector.NewBlockLen(n, 1<<10)
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < n; i++ {
		x.Set(i, float64(rng.Intn(5)))
	}
	return x
}

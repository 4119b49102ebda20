package vector

import (
	"math"
	"math/rand"
	"testing"
)

func randDense(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestBlockingShapes(t *testing.T) {
	for _, tc := range []struct{ n, blocks, wantBlocks, wantLen int }{
		{10, 1, 1, 10},
		{10, 3, 3, 4}, // ceil(10/3) = 4 → blocks of 4,4,2
		{10, 10, 10, 1},
		{10, 99, 10, 1}, // clamped to n
		{1 << 10, 8, 8, 128},
	} {
		b := New(tc.n, tc.blocks)
		if b.Len() != tc.n || b.Blocks() != tc.wantBlocks || b.BlockLen() != tc.wantLen {
			t.Errorf("New(%d,%d): len=%d blocks=%d blockLen=%d, want %d/%d/%d",
				tc.n, tc.blocks, b.Len(), b.Blocks(), b.BlockLen(), tc.n, tc.wantBlocks, tc.wantLen)
		}
		total := 0
		for i := 0; i < b.Blocks(); i++ {
			lo, hi := b.BlockRange(i)
			if hi-lo != len(b.Block(i)) || lo != total {
				t.Fatalf("New(%d,%d): block %d covers [%d,%d) but holds %d cells at offset %d",
					tc.n, tc.blocks, i, lo, hi, len(b.Block(i)), total)
			}
			total = hi
		}
		if total != tc.n {
			t.Fatalf("New(%d,%d): blocks cover %d cells", tc.n, tc.blocks, total)
		}
	}
}

func TestRoundTripPrimitives(t *testing.T) {
	const n = 1000
	x := randDense(n, 1)
	for _, blocks := range []int{1, 3, 7, 16, n} {
		b := New(n, blocks)
		b.Scatter(x)
		// At / Set / Add round-trip.
		for _, i := range []int{0, 1, n/2 - 1, n / 2, n - 1} {
			if b.At(i) != x[i] {
				t.Fatalf("blocks=%d: At(%d) = %v, want %v", blocks, i, b.At(i), x[i])
			}
		}
		b.Set(5, 42)
		b.Add(5, 1)
		if b.At(5) != 43 {
			t.Fatalf("blocks=%d: Set/Add broken", blocks)
		}
		b.Set(5, x[5])
		// Dense / CopyTo / Extract / CopyRange agree with the dense original.
		d := b.Dense()
		for i := range x {
			if d[i] != x[i] {
				t.Fatalf("blocks=%d: Dense()[%d] differs", blocks, i)
			}
		}
		got := b.Extract(17, extractEnd)
		for i := range got {
			if got[i] != x[17+i] {
				t.Fatalf("blocks=%d: Extract differs at %d", blocks, i)
			}
		}
		// Visit covers every cell ascending exactly once.
		next := 0
		b.Visit(func(i int, v float64) {
			if i != next || v != x[i] {
				t.Fatalf("blocks=%d: Visit(%d)=%v out of order or wrong (want idx %d val %v)", blocks, i, v, next, x[i])
			}
			next++
		})
		if next != n {
			t.Fatalf("blocks=%d: Visit covered %d cells", blocks, next)
		}
		// Segments tile an arbitrary range in order.
		pos := 3
		b.Segments(3, 997, func(off int, seg []float64) {
			if off != pos {
				t.Fatalf("blocks=%d: segment at %d, want %d", blocks, off, pos)
			}
			for i, v := range seg {
				if v != x[off+i] {
					t.Fatalf("blocks=%d: segment value differs at %d", blocks, off+i)
				}
			}
			pos += len(seg)
		})
		if pos != 997 {
			t.Fatalf("blocks=%d: segments covered up to %d", blocks, pos)
		}
	}
}

const extractEnd = 531

func TestFromDenseIsZeroCopy(t *testing.T) {
	x := []float64{1, 2, 3}
	b := FromDense(x)
	b.Set(1, 9)
	if x[1] != 9 {
		t.Fatal("FromDense copied")
	}
	if &b.Dense()[0] != &x[0] {
		t.Fatal("single-block Dense() copied")
	}
}

func TestFromSlices(t *testing.T) {
	b, err := FromSlices([][]float64{{1, 2}, {3, 4}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 5 || b.At(4) != 5 || b.At(2) != 3 {
		t.Fatalf("FromSlices misassembled: len=%d", b.Len())
	}
	if _, err := FromSlices([][]float64{{1, 2}, {3}, {4, 5}}); err == nil {
		t.Fatal("non-uniform interior block accepted")
	}
	if _, err := FromSlices([][]float64{{1, 2}, {3, 4, 5}}); err == nil {
		t.Fatal("oversized final block accepted")
	}
	if _, err := FromSlices([][]float64{{}}); err == nil {
		t.Fatal("empty block accepted")
	}
}

func TestCloneBlockLenAndAddFrom(t *testing.T) {
	const n = 257
	x := randDense(n, 2)
	a := New(n, 5)
	a.Scatter(x)
	b := a.CloneBlockLen(64)
	if b.BlockLen() != 64 || b.Blocks() != 5 {
		t.Fatalf("CloneBlockLen shape: %d×%d", b.Blocks(), b.BlockLen())
	}
	for i := 0; i < n; i++ {
		if b.At(i) != x[i] {
			t.Fatalf("CloneBlockLen differs at %d", i)
		}
	}
	// AddFrom across different blockings.
	if err := b.AddFrom(a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, want := b.At(i), x[i]+x[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AddFrom differs at %d: %v vs %v", i, got, want)
		}
	}
	if err := b.AddFrom(New(n+1, 1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	s, err := Sum(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(s.At(i)) != math.Float64bits(x[i]+x[i]) {
			t.Fatalf("Sum differs at %d", i)
		}
	}
}

func TestEmptyVector(t *testing.T) {
	b := New(0, 4)
	if b.Len() != 0 || b.Blocks() != 0 {
		t.Fatal("empty vector has storage")
	}
	b.Visit(func(int, float64) { t.Fatal("visited a cell of an empty vector") })
}

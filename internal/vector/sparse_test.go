package vector

import (
	"math"
	"math/rand"
	"testing"
)

// randCounts returns n cells of which about one in spread holds a positive
// integer count, and the sparse form of the same cells.
func randCounts(t *testing.T, n, spread, blockLen int, seed int64) ([]float64, *Blocked) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	var cells []int32
	var vals []float64
	for i := range x {
		if rng.Intn(spread) == 0 {
			x[i] = float64(1 + rng.Intn(100))
			cells, vals = append(cells, int32(i)), append(vals, x[i])
		}
	}
	sp, err := NewSparse(n, blockLen, cells, vals)
	if err != nil {
		t.Fatal(err)
	}
	return x, sp
}

func sameCells(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestSparseReadPrimitives: every read primitive of the sparse form means
// what it means on the dense form of the same cells, under the notional
// blocking.
func TestSparseReadPrimitives(t *testing.T) {
	for _, tc := range []struct{ n, spread, blockLen int }{
		{1, 1, 1}, {1, 5, 1}, {17, 3, 4}, {1000, 20, 64}, {1000, 1001, 300}, {4096, 2, 4096},
	} {
		x, sp := randCounts(t, tc.n, tc.spread, tc.blockLen, int64(tc.n+tc.spread))
		dense := FromDense(x).CloneBlockLen(tc.blockLen)
		if !Frozen(sp) || sp.Len() != tc.n || sp.BlockLen() != dense.BlockLen() || sp.Blocks() != dense.Blocks() {
			t.Fatalf("%+v: shape %d/%d/%d, want %d/%d/%d", tc, sp.Len(), sp.BlockLen(), sp.Blocks(), dense.Len(), dense.BlockLen(), dense.Blocks())
		}
		for i := 0; i < tc.n; i++ {
			if sp.At(i) != x[i] {
				t.Fatalf("%+v: At(%d) = %v, want %v", tc, i, sp.At(i), x[i])
			}
		}
		for bi := 0; bi < sp.Blocks(); bi++ {
			lo, hi := sp.BlockRange(bi)
			dlo, dhi := dense.BlockRange(bi)
			if lo != dlo || hi != dhi {
				t.Fatalf("%+v: block %d covers [%d,%d), dense [%d,%d)", tc, bi, lo, hi, dlo, dhi)
			}
			sameCells(t, "Block", sp.Block(bi), dense.Block(bi))
		}
		sameCells(t, "Dense", sp.Dense(), x)
		got := make([]float64, tc.n+3)
		sp.CopyTo(got)
		sameCells(t, "CopyTo", got[:tc.n], x)
		lo, hi := tc.n/3, tc.n-tc.n/4
		sameCells(t, "Extract", sp.Extract(lo, hi), x[lo:hi])
		next := lo
		sp.Segments(lo, hi, func(off int, seg []float64) {
			if off != next {
				t.Fatalf("%+v: segment at %d, want %d", tc, off, next)
			}
			sameCells(t, "Segments", seg, x[off:off+len(seg)])
			next += len(seg)
		})
		if next != hi {
			t.Fatalf("%+v: segments ended at %d, want %d", tc, next, hi)
		}
		var visited []float64
		sp.Visit(func(i int, v float64) {
			if i != len(visited) {
				t.Fatalf("%+v: Visit out of order at %d", tc, i)
			}
			visited = append(visited, v)
		})
		sameCells(t, "Visit", visited, x)
		for _, c := range []*Blocked{sp.Clone(), sp.CloneBlockLen(7)} {
			if Frozen(c) {
				t.Fatal("a copy of a sparse vector is frozen")
			}
			c.Set(0, -1) // copies are dense and writable
			sameCells(t, "Clone", c.Extract(1, tc.n), x[1:])
		}
		if sp.At(0) != x[0] {
			t.Fatal("writing a copy changed the sparse vector")
		}
		acc := New(tc.n, 3)
		if err := acc.AddFrom(sp); err != nil {
			t.Fatal(err)
		}
		sameCells(t, "AddFrom", acc.Dense(), x)
		if cells, _, ok := Sparse(sp); !ok || Stored(sp) != len(cells) || ResidentBytes(sp) != 12*len(cells) {
			t.Fatalf("%+v: stored %d, resident %d", tc, Stored(sp), ResidentBytes(sp))
		}
	}
}

// TestSparseMutatorsPanic: the sparse form is immutable.
func TestSparseMutatorsPanic(t *testing.T) {
	_, sp := randCounts(t, 64, 4, 16, 1)
	for name, write := range map[string]func(){
		"Set":     func() { sp.Set(1, 2) },
		"Add":     func() { sp.Add(1, 2) },
		"Scatter": func() { sp.Scatter(make([]float64, 64)) },
		"AddFrom": func() { _ = sp.AddFrom(New(64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a sparse vector did not panic", name)
				}
			}()
			write()
		}()
	}
}

// TestNewSparseValidates: out-of-order or out-of-range cells and values
// that are not positive integer counts totalling below 2^53 are refused.
func TestNewSparseValidates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		cells []int32
		vals  []float64
	}{
		{"unsorted", 8, []int32{3, 1}, []float64{1, 1}},
		{"duplicate", 8, []int32{3, 3}, []float64{1, 1}},
		{"out of range", 8, []int32{8}, []float64{1}},
		{"negative cell", 8, []int32{-1}, []float64{1}},
		{"length mismatch", 8, []int32{1}, nil},
		{"zero", 8, []int32{1}, []float64{0}},
		{"negative zero", 8, []int32{1}, []float64{math.Copysign(0, -1)}},
		{"negative", 8, []int32{1}, []float64{-3}},
		{"fraction", 8, []int32{1}, []float64{1.5}},
		{"NaN", 8, []int32{1}, []float64{math.NaN()}},
		{"infinity", 8, []int32{1}, []float64{math.Inf(1)}},
		{"total at 2^53", 8, []int32{1, 2}, []float64{1 << 52, 1 << 52}},
		{"length", 1<<31 + 1, nil, nil},
	} {
		if _, err := NewSparse(tc.n, 1, tc.cells, tc.vals); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewSparse(8, 4, []int32{0, 7}, []float64{1, 1<<53 - 2}); err != nil {
		t.Fatalf("total just below 2^53 refused: %v", err)
	}
}

// TestSparseSum: two sparse operands merge into a sparse sum equal, bit for
// bit, to the dense sum; a mixed sum is dense; a merged total reaching 2^53
// falls back to dense.
func TestSparseSum(t *testing.T) {
	xa, a := randCounts(t, 500, 7, 64, 1)
	xb, b := randCounts(t, 500, 5, 32, 2)
	want := make([]float64, 500)
	for i := range want {
		want[i] = xa[i] + xb[i]
	}
	s, err := Sum(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := Sparse(s); !ok {
		t.Fatal("sparse + sparse is not sparse")
	}
	sameCells(t, "sparse+sparse", s.Dense(), want)
	for _, mixed := range [][2]*Blocked{{a, FromDense(xb)}, {FromDense(xa), b}} {
		m, err := Sum(mixed[0], mixed[1])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := Sparse(m); ok {
			t.Fatal("a mixed sum is sparse")
		}
		sameCells(t, "mixed", m.Dense(), want)
	}
	big, err := NewSparse(4, 4, []int32{1}, []float64{1 << 52})
	if err != nil {
		t.Fatal(err)
	}
	over, err := Sum(big, big)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := Sparse(over); ok || over.At(1) != 1<<53 {
		t.Fatalf("a total of 2^53 stayed sparse or lost its value: %v", over.At(1))
	}
	if _, err := Sum(a, New(499, 1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Sum(a, mustSparse(t, 499)); err == nil {
		t.Fatal("sparse length mismatch accepted")
	}
}

func mustSparse(t *testing.T, n int) *Blocked {
	t.Helper()
	sp, err := NewSparse(n, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

package marginal

import (
	"math"
	mathbits "math/bits"

	"repro/internal/bits"
	"repro/internal/vector"
)

// Blocked-vector evaluation. Every marginal sum in the package runs through
// one kernel, and the kernel accumulates each output cell over ascending
// domain indices: per cell the result is the left-to-right sum
// ((0 + x_γ1) + x_γ2) + … over γ1 < γ2 < … with γ∧α = β. That order never
// depends on the blocking, on which other marginals are evaluated in the
// same call or on the requested row range, so the fused, per-marginal,
// sharded and parallel paths are all bit-identical. (The sparse path below
// skips zero cells and the lockstep path adds them; both give the same
// bits, because an accumulator that starts at +0 never becomes −0, and
// x + ±0 = x for every other x.)
//
// The kernel walks the vector as aligned power-of-two pieces that each lie
// inside one block, and on a dense piece it computes no per-cell index.
// Within a piece of 2^L cells the α bits at or above L are constant, so
// they fix the base cell once per piece. The α bits below L pick one of
// 2^k cells, and the γ feeding each cell are the same free-bit walk
// shifted by a constant offset, so up to four cells are summed in
// lockstep: four independent add chains, each still in ascending γ order,
// read straight from the block's []float64. A per-cell lookup table
// (one index per γ from 8-bit slices) measured 3× slower than this on
// identity recovery at d = 16: its adds into one cell form a single
// dependent chain through memory.

// maxPiece caps a piece at 2^16 cells (512 KiB), so a multi-marginal sweep
// finds the piece in cache for every marginal after the first.
const maxPiece = 1 << 16

// A piece whose sampled cells are at most one in vector.SparseRatio
// non-zero takes the sparse path: its non-zero cells are gathered on the
// stack, gather at a time, and only those are added, each at its own cell
// index. On the exact counts of a large, sparse domain (Adult's 2^23 cells
// hold 0.25% non-zeros) that beats adding every zero in lockstep. The
// choice changes only the speed, never the bits. A vector in the sparse
// form (vector.NewSparse) skips the scan: its list of non-zeros feeds the
// same path directly, so the sweep costs O(non-zeros), not O(2^d).
const (
	sparseSamples = 1024
	gather        = 256
)

// sweep evaluates rows [lo, lo+len(out)) of w's concatenated answers.
type sweep struct {
	w   *Workload
	lo  int
	out []float64
}

// run adds x's contribution, piece by piece in ascending domain order.
func (sw sweep) run(x *vector.Blocked) {
	if cells, vals, ok := vector.Sparse(x); ok {
		var gs [gather]int
		for i := 0; i < len(cells); i += gather {
			n := min(gather, len(cells)-i)
			for j, c := range cells[i : i+n] {
				gs[j] = int(c)
			}
			sw.cells(gs[:n], vals[i:i+n])
		}
		return
	}
	for b := 0; b < x.Blocks(); b++ {
		blk := x.Block(b)
		start, _ := x.BlockRange(b)
		for i := 0; i < len(blk); {
			size := nextPiece(start, i, len(blk))
			sw.piece(blk[i:i+size], start+i)
			i += size
		}
	}
}

// nextPiece returns the length of the piece starting at block offset i of
// a block that begins at cell start and holds n cells: the largest power of
// two that is at most maxPiece, fits in the block and keeps the piece
// aligned to its own length in the domain.
func nextPiece(start, i, n int) int {
	size := min(1<<uint(mathbits.Len(uint(n-i))-1), maxPiece)
	if s := start + i; s != 0 {
		size = min(size, s&-s)
	}
	return size
}

// target returns marginal m's share of the sweep; off is m's first row in
// the concatenation.
func (sw sweep) target(m Marginal, off int) (target, bool) {
	a, z := max(off, sw.lo), min(off+m.Cells(), sw.lo+len(sw.out))
	if a >= z {
		return target{}, false
	}
	return target{alpha: m.Alpha, first: a - off, out: sw.out[a-sw.lo : z-sw.lo]}, true
}

// piece adds x[s, s+len(p)) into every marginal of the sweep.
func (sw sweep) piece(p []float64, s int) {
	if sparse(p) {
		sw.sparsePiece(p, s)
		return
	}
	off := 0
	for _, m := range sw.w.Marginals {
		if t, ok := sw.target(m, off); ok {
			t.sumPiece(p, s)
		}
		off += m.Cells()
	}
}

// sparse reports whether p looks sparse, judged from about sparseSamples
// evenly spaced cells. The stride is odd, so the samples cover every
// residue of the low bits rather than only the cells where an attribute
// takes its (often most frequent) value 0.
func sparse(p []float64) bool {
	step := len(p)/sparseSamples | 1
	n, seen := 0, 0
	for i := 0; i < len(p); i += step {
		if p[i] != 0 {
			n++
		}
		seen++
	}
	return n*vector.SparseRatio <= seen
}

// sparsePiece is piece for a sparse p.
func (sw sweep) sparsePiece(p []float64, s int) {
	var gs [gather]int
	var vs [gather]float64
	n := 0
	for l := 0; l < len(p); l += 8 {
		line := p[l:min(l+8, len(p))]
		if allZero(line) {
			continue
		}
		for j, v := range line {
			if v != 0 {
				gs[n], vs[n] = s+l+j, v
				if n++; n == gather {
					sw.cells(gs[:], vs[:])
					n = 0
				}
			}
		}
	}
	sw.cells(gs[:n], vs[:n])
}

// allZero reports whether every cell of line is ±0. It tests the bits of
// all of them at once, so an empty line costs one branch, not one per cell.
func allZero(line []float64) bool {
	var or uint64
	for _, v := range line {
		or |= math.Float64bits(v)
	}
	return or<<1 == 0
}

// cells adds the cells gs (ascending, values vs) into every marginal.
func (sw sweep) cells(gs []int, vs []float64) {
	off := 0
	for _, m := range sw.w.Marginals {
		if t, ok := sw.target(m, off); ok {
			for i, g := range gs {
				if c := bits.CellIndex(t.alpha, bits.Mask(g)&t.alpha) - t.first; uint(c) < uint(len(t.out)) {
					t.out[c] += vs[i]
				}
			}
		}
		off += m.Cells()
	}
}

// target is one marginal's share of a sweep: cells [first,
// first+len(out)) of Cα x are added into out.
type target struct {
	alpha bits.Mask
	first int
	out   []float64
}

// sumPiece adds one piece's contribution to t. The piece is x[s, s+len) for
// an s aligned to len, a power of two.
func (t target) sumPiece(piece []float64, s int) {
	low := bits.Mask(len(piece) - 1)
	aL := t.alpha & low
	base := bits.CellIndex(t.alpha, bits.Mask(s)&t.alpha)
	c0, c1 := max(base, t.first), min(base+1<<uint(aL.Count()), t.first+len(t.out))
	// The free-bit walk below visits runs of `run` contiguous cells that
	// all feed one output cell: the cells under aL's lowest bit.
	run := len(piece)
	if aL != 0 {
		run = 1 << uint(mathbits.TrailingZeros32(uint32(aL)))
	}
	for c := c0; c < c1; {
		acc := t.out[c-t.first:]
		switch n := c1 - c; {
		case n >= 4:
			sum4(piece, aL, run, c-base, (*[4]float64)(acc))
			c += 4
		case n >= 2:
			sum2(piece, aL, run, c-base, (*[2]float64)(acc))
			c += 2
		default:
			sum1(piece, aL, run, c-base, &acc[0])
			c++
		}
	}
}

// sum4 adds the piece's cells that feed local cells cl…cl+3 of aL into acc.
func sum4(piece []float64, aL bits.Mask, run, cl int, acc *[4]float64) {
	o0, o1 := int(bits.CellMask(aL, cl)), int(bits.CellMask(aL, cl+1))
	o2, o3 := int(bits.CellMask(aL, cl+2)), int(bits.CellMask(aL, cl+3))
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	fixed, skip := int(aL), int(aL)|(run-1)
	if run == 1 {
		for g := 0; g < len(piece); g = ((g | fixed) + 1) &^ fixed {
			a0 += piece[g+o0]
			a1 += piece[g+o1]
			a2 += piece[g+o2]
			a3 += piece[g+o3]
		}
		acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
		return
	}
	for g := 0; g < len(piece); g = ((g | skip) + 1) &^ fixed {
		r0 := piece[g+o0 : g+o0+run]
		r1 := piece[g+o1 : g+o1+len(r0)]
		r2 := piece[g+o2 : g+o2+len(r0)]
		r3 := piece[g+o3 : g+o3+len(r0)]
		for i, v := range r0 {
			a0 += v
			a1 += r1[i]
			a2 += r2[i]
			a3 += r3[i]
		}
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
}

// sum2 is sum4 for two cells.
func sum2(piece []float64, aL bits.Mask, run, cl int, acc *[2]float64) {
	o0, o1 := int(bits.CellMask(aL, cl)), int(bits.CellMask(aL, cl+1))
	a0, a1 := acc[0], acc[1]
	fixed, skip := int(aL), int(aL)|(run-1)
	for g := 0; g < len(piece); g = ((g | skip) + 1) &^ fixed {
		r0 := piece[g+o0 : g+o0+run]
		r1 := piece[g+o1 : g+o1+len(r0)]
		for i, v := range r0 {
			a0 += v
			a1 += r1[i]
		}
	}
	acc[0], acc[1] = a0, a1
}

// sum1 is sum4 for one cell.
func sum1(piece []float64, aL bits.Mask, run, cl int, acc *float64) {
	o0 := int(bits.CellMask(aL, cl))
	a0 := *acc
	fixed, skip := int(aL), int(aL)|(run-1)
	for g := 0; g < len(piece); g = ((g | skip) + 1) &^ fixed {
		for _, v := range piece[g+o0 : g+o0+run] {
			a0 += v
		}
	}
	*acc = a0
}

// EvalVector computes Cα x over a blocked contingency vector.
func (m Marginal) EvalVector(x *vector.Blocked) []float64 {
	one := [1]Marginal{m}
	w := Workload{Marginals: one[:]}
	return w.EvalSinglePassVector(x)
}

// EvalSinglePassVector answers every marginal exactly with one pass over
// the blocked vector: each piece is summed into every marginal while it is
// in cache.
func (w *Workload) EvalSinglePassVector(x *vector.Blocked) []float64 {
	out := make([]float64, w.TotalCells())
	w.EvalRangeVector(x, 0, len(out), out)
	return out
}

// EvalRangeVector computes rows [lo, hi) of the concatenated exact answers
// into out (len hi−lo), reading only the marginals whose cells intersect
// the range. Tiling [0, TotalCells()) with EvalRangeVector calls is
// bit-identical to EvalSinglePassVector — the per-block answer-slicing
// contract the sharded measure stage relies on. It allocates nothing.
func (w *Workload) EvalRangeVector(x *vector.Blocked, lo, hi int, out []float64) {
	if hi-lo != len(out) {
		panic("marginal: EvalRangeVector output length mismatch")
	}
	clear(out)
	sweep{w: w, lo: lo, out: out}.run(x)
}

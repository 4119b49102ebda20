// Package vector provides Blocked, the sharded representation of the huge
// vectors the release pipeline moves around: the 2^d contingency vector and
// the strategy-answer vector z = Sx + ν. A Blocked vector is the same
// mathematical object as one contiguous []float64 — every primitive is
// defined so that iteration order over cells is the plain ascending index
// order — but its storage takes one of two forms.
//
// The dense form partitions the cells into contiguous cell-range blocks of
// one uniform length. That buys the pipeline three things:
//
//   - bounded per-worker memory: a stage that materialises or transforms the
//     vector allocates and touches one block at a time, never one giant
//     slice;
//   - a natural unit of parallelism: blocks are disjoint cell ranges, so
//     workers can own contiguous runs of them without synchronisation;
//   - determinism by construction: because every primitive visits cells in
//     ascending index order, an algorithm that accumulates per output cell
//     in visit order produces bit-identical floats at any block count —
//     the property the engine's sharded↔monolithic contract rests on.
//
// The sparse form (NewSparse) holds only the cells whose bit pattern is
// non-zero, as ascending cell indices and their values. Only the dataset
// store builds it, for count vectors with at most one non-zero in
// SparseRatio cells; it is frozen, and its values are positive integers
// whose total is below 2^53, so every sum over any subset of them is exact.
// The read primitives keep their meaning on it — they present the cells
// under a notional blocking and materialise read-only data where they hand
// out slices — and the mutators panic. Kernels that can do better read the
// list itself through Sparse.
//
// The block length is uniform (the final block may be shorter), so random
// access is one division away; FromDense wraps an existing dense slice as a
// single block with zero copying, which is how the monolithic code paths
// ride through the same interfaces for free.
package vector

import (
	"fmt"
	"math"
	"slices"
)

// DefaultBlockLen is the block length New picks when the caller expresses
// no preference: 2^16 cells (512 KiB of float64), small enough that a
// per-worker block is cache- and allocator-friendly, large enough that
// block bookkeeping vanishes against the work done per block.
const DefaultBlockLen = 1 << 16

// SparseRatio is the density crossover between the two forms: a count
// vector with at most one non-zero in SparseRatio cells is held sparse by
// the dataset store and summed cell by cell by the marginal kernel. 16 is
// the kernel's measured crossover, where gathering the non-zeros of a piece
// starts to beat adding every cell in lockstep.
const SparseRatio = 16

// maxExact bounds the total of a sparse vector: below 2^53 every partial
// sum of its integer counts is an exactly representable float64.
const maxExact = 1 << 53

// Blocked is a length-N float64 vector stored as contiguous blocks of one
// uniform length (the last block may be shorter), or as its list of
// non-zero cells (see NewSparse). The zero value is an empty vector; build
// real ones with New, NewBlockLen, FromDense, FromSlices or NewSparse.
//
// Concurrency: distinct blocks may be read and written concurrently
// (they share no storage); concurrent access to one block needs external
// coordination, exactly like a plain slice. A sparse vector is immutable
// and may be read from any number of goroutines.
type Blocked struct {
	n        int
	blockLen int
	blocks   [][]float64 // dense form
	frozen   bool        // see Freeze
	// Sparse form (sparse set, blocks nil): the cells whose bit pattern is
	// non-zero, ascending, and their values; blockLen is the notional
	// blocking the read primitives present.
	sparse bool
	cells  []int32
	vals   []float64
}

// Freeze marks b immutable: its owner promises that no cell of b changes
// again. The engine memoises exact strategy answers only for frozen inputs
// (engine.PlanCache), so writing to a frozen vector would let later
// releases read answers of the old cells. The dataset store freezes every
// snapshot it installs. Freeze and Frozen are package functions rather
// than methods so that the module's public alias of Blocked does not carry
// them: a caller-owned vector is never frozen.
func Freeze(b *Blocked) { b.frozen = true }

// Frozen reports whether Freeze was called on b, or b is sparse. Dense
// copies (Clone, CloneBlockLen, a Sum with a dense operand) start unfrozen.
func Frozen(b *Blocked) bool { return b.frozen }

// NewSparse builds a frozen length-n vector held as its non-zero cells:
// cells[i] ascending in [0, n), vals[i] its value. Every value must be a
// positive integer and their total below 2^53, the integrality that makes
// every marginal sum over the vector exact in any order. The read
// primitives present the notional block length blockLen (clamped like
// NewBlockLen's). NewSparse takes ownership of both slices. Like Freeze it
// is a package function, so the public alias of Blocked cannot build one.
func NewSparse(n, blockLen int, cells []int32, vals []float64) (*Blocked, error) {
	if n < 0 || int64(n) > 1<<31 {
		return nil, fmt.Errorf("vector: sparse length %d outside [0, 2^31]", n)
	}
	if len(cells) != len(vals) {
		return nil, fmt.Errorf("vector: %d sparse cells with %d values", len(cells), len(vals))
	}
	total := 0.0
	for i, c := range cells {
		if c < 0 || int(c) >= n || (i > 0 && c <= cells[i-1]) {
			return nil, fmt.Errorf("vector: sparse cell %d at position %d is out of range or order", c, i)
		}
		v := vals[i]
		if v < 1 || v != math.Trunc(v) {
			return nil, fmt.Errorf("vector: sparse cell %d holds %v, not a positive integer count", c, v)
		}
		if total += v; total >= maxExact {
			return nil, fmt.Errorf("vector: sparse counts total at least 2^53")
		}
	}
	if blockLen < 1 || blockLen > n {
		blockLen = n
	}
	return &Blocked{n: n, blockLen: blockLen, frozen: true, sparse: true, cells: cells, vals: vals}, nil
}

// Sparse returns b's non-zero cells and their values when b is in the
// sparse form. The slices are shared: read them, never write them.
func Sparse(b *Blocked) (cells []int32, vals []float64, ok bool) {
	return b.cells, b.vals, b.sparse
}

// Stored returns the number of cell values b holds: its non-zeros in the
// sparse form, every cell in the dense form.
func Stored(b *Blocked) int {
	if b.sparse {
		return len(b.cells)
	}
	return b.n
}

// ResidentBytes returns the bytes b's cell storage occupies: 12 per
// non-zero in the sparse form (a 4-byte index and an 8-byte value), 8 per
// cell in the dense form.
func ResidentBytes(b *Blocked) int {
	if b.sparse {
		return 4*len(b.cells) + 8*len(b.vals)
	}
	return 8 * b.n
}

// New returns a zeroed vector of length n split into the given number of
// blocks (uniform length ⌈n/blocks⌉; blocks is clamped to [1, n] so every
// block is non-empty). Each block is its own allocation: no contiguous
// n-cell slice ever exists.
func New(n, blocks int) *Blocked {
	if n < 0 {
		panic(fmt.Sprintf("vector: negative length %d", n))
	}
	if n == 0 {
		return &Blocked{}
	}
	if blocks < 1 {
		blocks = 1
	}
	if blocks > n {
		blocks = n
	}
	return NewBlockLen(n, (n+blocks-1)/blocks)
}

// NewBlockLen returns a zeroed vector of length n with an explicit uniform
// block length.
func NewBlockLen(n, blockLen int) *Blocked {
	if n < 0 {
		panic(fmt.Sprintf("vector: negative length %d", n))
	}
	if n == 0 {
		return &Blocked{}
	}
	if blockLen < 1 || blockLen > n {
		blockLen = n
	}
	nb := (n + blockLen - 1) / blockLen
	b := &Blocked{n: n, blockLen: blockLen, blocks: make([][]float64, nb)}
	for i := range b.blocks {
		lo := i * blockLen
		hi := lo + blockLen
		if hi > n {
			hi = n
		}
		b.blocks[i] = make([]float64, hi-lo)
	}
	return b
}

// FromDense wraps an existing dense slice as a single-block vector with
// zero copying; mutations through either view are visible in both. This is
// how monolithic code paths flow through the blocked interfaces for free.
func FromDense(x []float64) *Blocked {
	if len(x) == 0 {
		return &Blocked{}
	}
	return &Blocked{n: len(x), blockLen: len(x), blocks: [][]float64{x}}
}

// FromSlices adopts pre-existing block slices without copying: every block
// but the last must share one length, and the last must be non-empty and no
// longer. The dataset store uses this to hand its ingest shards to the
// engine directly.
func FromSlices(blocks [][]float64) (*Blocked, error) {
	if len(blocks) == 0 {
		return &Blocked{}, nil
	}
	blockLen := len(blocks[0])
	if blockLen == 0 {
		return nil, fmt.Errorf("vector: empty first block")
	}
	n := 0
	for i, bl := range blocks {
		switch {
		case i < len(blocks)-1 && len(bl) != blockLen:
			return nil, fmt.Errorf("vector: block %d has %d cells, want the uniform %d", i, len(bl), blockLen)
		case i == len(blocks)-1 && (len(bl) == 0 || len(bl) > blockLen):
			return nil, fmt.Errorf("vector: final block has %d cells, want 1..%d", len(bl), blockLen)
		}
		n += len(bl)
	}
	return &Blocked{n: n, blockLen: blockLen, blocks: blocks}, nil
}

// Len returns the vector length.
func (b *Blocked) Len() int { return b.n }

// Blocks returns the number of storage blocks (of a sparse vector: of its
// notional blocking).
func (b *Blocked) Blocks() int {
	if b.n == 0 {
		return 0
	}
	return (b.n + b.blockLen - 1) / b.blockLen
}

// BlockLen returns the uniform block length (the final block may be
// shorter). Zero for an empty vector.
func (b *Blocked) BlockLen() int { return b.blockLen }

// Block returns block i's backing slice; it covers cells
// [i·BlockLen, i·BlockLen+len(slice)). A sparse vector returns a fresh,
// materialised copy: writes to it go nowhere.
func (b *Blocked) Block(i int) []float64 {
	if b.sparse {
		return b.sparseBlock(i)
	}
	return b.blocks[i]
}

func (b *Blocked) sparseBlock(i int) []float64 {
	lo, hi := b.BlockRange(i)
	return b.Extract(lo, hi)
}

// BlockRange returns the half-open cell range [lo, hi) block i covers.
func (b *Blocked) BlockRange(i int) (lo, hi int) {
	lo = i * b.blockLen
	return lo, min(lo+b.blockLen, b.n)
}

// At returns cell i. On a sparse vector it is a binary search.
func (b *Blocked) At(i int) float64 {
	if b.sparse {
		return b.sparseAt(i)
	}
	return b.blocks[i/b.blockLen][i%b.blockLen]
}

func (b *Blocked) sparseAt(i int) float64 {
	if uint(i) >= uint(b.n) {
		panic(fmt.Sprintf("vector: index %d outside length %d", i, b.n))
	}
	if j, ok := slices.BinarySearch(b.cells, int32(i)); ok {
		return b.vals[j]
	}
	return 0
}

// writable panics on a sparse vector: its list is shared and immutable.
func (b *Blocked) writable() {
	if b.sparse {
		panic("vector: writing to a sparse vector")
	}
}

// Set writes cell i.
func (b *Blocked) Set(i int, v float64) {
	b.writable()
	b.blocks[i/b.blockLen][i%b.blockLen] = v
}

// Add accumulates into cell i.
func (b *Blocked) Add(i int, v float64) {
	b.writable()
	b.blocks[i/b.blockLen][i%b.blockLen] += v
}

// Dense returns the vector as one contiguous slice. A single-block vector
// returns its backing slice without copying (treat it as a view — writes
// alias); otherwise the blocks are gathered into a fresh allocation, as is
// a sparse vector. Stages on the sharded fast path must not call this on
// large vectors — it is the re-densification the blocked pipeline exists to
// avoid — but it keeps the small-vector and legacy paths trivial.
func (b *Blocked) Dense() []float64 {
	if len(b.blocks) == 1 {
		return b.blocks[0]
	}
	out := make([]float64, b.n)
	b.CopyTo(out)
	return out
}

// CopyTo gathers the whole vector into dst (len ≥ Len).
func (b *Blocked) CopyTo(dst []float64) {
	if b.sparse {
		b.CopyRange(dst[:b.n], 0)
		return
	}
	off := 0
	for _, bl := range b.blocks {
		copy(dst[off:], bl)
		off += len(bl)
	}
}

// CopyRange gathers cells [lo, lo+len(dst)) into dst.
func (b *Blocked) CopyRange(dst []float64, lo int) {
	if b.sparse {
		hi := lo + len(dst)
		if lo < 0 || hi > b.n {
			panic(fmt.Sprintf("vector: range [%d,%d) outside length %d", lo, hi, b.n))
		}
		clear(dst)
		j, _ := slices.BinarySearch(b.cells, int32(lo))
		for ; j < len(b.cells) && int(b.cells[j]) < hi; j++ {
			dst[int(b.cells[j])-lo] = b.vals[j]
		}
		return
	}
	b.Segments(lo, lo+len(dst), func(off int, seg []float64) {
		copy(dst[off-lo:], seg)
	})
}

// Extract returns a fresh copy of cells [lo, hi).
func (b *Blocked) Extract(lo, hi int) []float64 {
	out := make([]float64, hi-lo)
	b.CopyRange(out, lo)
	return out
}

// Scatter copies the dense slice src into the blocks (len(src) must be Len).
func (b *Blocked) Scatter(src []float64) {
	b.writable()
	if len(src) != b.n {
		panic(fmt.Sprintf("vector: scattering %d cells into a %d-cell vector", len(src), b.n))
	}
	off := 0
	for _, bl := range b.blocks {
		copy(bl, src[off:])
		off += len(bl)
	}
}

// Segments visits the storage segments overlapping [lo, hi) in ascending
// cell order: fn receives each segment's starting cell index and the
// writable sub-slice covering it. This is the primitive stages use to walk
// an arbitrary cell range across block boundaries without copying. On a
// sparse vector each segment is materialised into one scratch slice that
// is read-only and valid only during its call.
func (b *Blocked) Segments(lo, hi int, fn func(off int, seg []float64)) {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("vector: segment range [%d,%d) outside length %d", lo, hi, b.n))
	}
	var scratch []float64
	if b.sparse && lo < hi {
		scratch = make([]float64, min(b.blockLen, hi-lo))
	}
	for lo < hi {
		bi := lo / b.blockLen
		base := bi * b.blockLen
		end := min(base+b.blockLen, hi)
		if b.sparse {
			seg := scratch[:end-lo]
			b.CopyRange(seg, lo)
			fn(lo, seg)
		} else {
			fn(lo, b.blocks[bi][lo-base:end-base])
		}
		lo = end
	}
}

// Visit calls fn for every cell in ascending index order. Algorithms that
// accumulate per output cell in Visit order are bit-identical at any block
// count, because this order never depends on the blocking.
func (b *Blocked) Visit(fn func(i int, v float64)) {
	if b.sparse {
		next := 0
		for j, c := range b.cells {
			for ; next < int(c); next++ {
				fn(next, 0)
			}
			fn(next, b.vals[j])
			next++
		}
		for ; next < b.n; next++ {
			fn(next, 0)
		}
		return
	}
	off := 0
	for _, bl := range b.blocks {
		for j, v := range bl {
			fn(off+j, v)
		}
		off += len(bl)
	}
}

// Clone returns a deep, writable copy with the same blocking; a sparse
// vector is materialised into the dense form of its notional blocking.
func (b *Blocked) Clone() *Blocked {
	if b.sparse {
		return b.CloneBlockLen(b.blockLen)
	}
	out := &Blocked{n: b.n, blockLen: b.blockLen, blocks: make([][]float64, len(b.blocks))}
	for i, bl := range b.blocks {
		out.blocks[i] = append([]float64(nil), bl...)
	}
	return out
}

// CloneBlockLen returns a deep copy re-partitioned to the given uniform
// block length — each destination block is gathered from the source blocks
// one at a time, so no contiguous full-length slice is ever allocated.
func (b *Blocked) CloneBlockLen(blockLen int) *Blocked {
	out := NewBlockLen(b.n, blockLen)
	for i, bl := range out.blocks {
		b.CopyRange(bl, i*out.blockLen)
	}
	return out
}

// AddFrom accumulates o into b element-wise (the merge primitive: summing
// shard contributions or a delta ingest into an existing aggregate). The
// lengths must match; the blockings need not. Zero cells of o are skipped,
// so a sparse o costs its non-zeros.
func (b *Blocked) AddFrom(o *Blocked) error {
	b.writable()
	if o.n != b.n {
		return fmt.Errorf("vector: adding a %d-cell vector into a %d-cell one", o.n, b.n)
	}
	if o.sparse {
		for j, c := range o.cells {
			b.Add(int(c), o.vals[j])
		}
		return nil
	}
	o.Visit(func(i int, v float64) {
		if v != 0 {
			b.Add(i, v)
		}
	})
	return nil
}

// Sum returns a + b. Per cell the addition is a[i] + b[i], independent of
// either form or blocking. Two sparse operands merge in O(nnz(a) + nnz(b))
// into a sparse result (dense, with a's notional blocking, if the merged
// total reaches 2^53); otherwise the result is a dense copy of a with b
// added, in a's blocking.
func Sum(a, b *Blocked) (*Blocked, error) {
	if a.sparse && b.sparse {
		if a.n != b.n {
			return nil, fmt.Errorf("vector: adding a %d-cell vector into a %d-cell one", b.n, a.n)
		}
		cells := make([]int32, 0, len(a.cells)+len(b.cells))
		vals := make([]float64, 0, cap(cells))
		i, j := 0, 0
		for i < len(a.cells) || j < len(b.cells) {
			switch {
			case j == len(b.cells) || (i < len(a.cells) && a.cells[i] < b.cells[j]):
				cells, vals = append(cells, a.cells[i]), append(vals, a.vals[i])
				i++
			case i == len(a.cells) || b.cells[j] < a.cells[i]:
				cells, vals = append(cells, b.cells[j]), append(vals, b.vals[j])
				j++
			default:
				cells, vals = append(cells, a.cells[i]), append(vals, a.vals[i]+b.vals[j])
				i, j = i+1, j+1
			}
		}
		if out, err := NewSparse(a.n, a.blockLen, cells, vals); err == nil {
			return out, nil
		}
	}
	out := a.Clone()
	if err := out.AddFrom(b); err != nil {
		return nil, err
	}
	return out, nil
}

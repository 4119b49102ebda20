// Package vector provides Blocked, the sharded representation of the huge
// dense vectors the release pipeline moves around: the 2^d contingency
// vector and the strategy-answer vector z = Sx + ν. A Blocked vector is the
// same mathematical object as one contiguous []float64 — every primitive is
// defined so that iteration order over cells is the plain ascending index
// order — but its storage is partitioned into contiguous cell-range blocks
// of one uniform length. That buys the pipeline three things:
//
//   - bounded per-worker memory: a stage that materialises or transforms the
//     vector allocates and touches one block at a time, never one giant
//     slice (the dataset store's ingest shards feed releases without ever
//     re-densifying);
//   - a natural unit of parallelism: blocks are disjoint cell ranges, so a
//     worker pool can own them without synchronisation, and Schedule gives
//     the deterministic block→worker assignment every stage shares;
//   - determinism by construction: because every primitive visits cells in
//     ascending index order, an algorithm that accumulates per output cell
//     in visit order produces bit-identical floats at any block count —
//     the property the engine's sharded↔monolithic contract rests on.
//
// The block length is uniform (the final block may be shorter), so random
// access is one division away; FromDense wraps an existing dense slice as a
// single block with zero copying, which is how the monolithic code paths
// ride through the same interfaces for free.
package vector

import "fmt"

// DefaultBlockLen is the block length New picks when the caller expresses
// no preference: 2^16 cells (512 KiB of float64), small enough that a
// per-worker block is cache- and allocator-friendly, large enough that
// block bookkeeping vanishes against the work done per block.
const DefaultBlockLen = 1 << 16

// Blocked is a length-N float64 vector stored as contiguous blocks of one
// uniform length (the last block may be shorter). The zero value is an
// empty vector; build real ones with New, NewBlockLen, FromDense or
// FromSlices.
//
// Concurrency: distinct blocks may be read and written concurrently
// (they share no storage); concurrent access to one block needs external
// coordination, exactly like a plain slice.
type Blocked struct {
	n        int
	blockLen int
	blocks   [][]float64
	frozen   bool // see Freeze
}

// Freeze marks b immutable: its owner promises that no cell of b changes
// again. The engine memoises exact strategy answers only for frozen inputs
// (engine.PlanCache), so writing to a frozen vector would let later
// releases read answers of the old cells. The dataset store freezes every
// snapshot it installs. Freeze and Frozen are package functions rather
// than methods so that the module's public alias of Blocked does not carry
// them: a caller-owned vector is never frozen.
func Freeze(b *Blocked) { b.frozen = true }

// Frozen reports whether Freeze was called on b. Copies (Clone, Sum,
// CloneBlockLen) start unfrozen.
func Frozen(b *Blocked) bool { return b.frozen }

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

// Blocks returns the number of storage blocks.
func (b *Blocked) Blocks() int { return len(b.blocks) }

// BlockLen returns the uniform block length (the final block may be
// shorter). Zero for an empty vector.
func (b *Blocked) BlockLen() int { return b.blockLen }

// Block returns block i's backing slice; it covers cells
// [i·BlockLen, i·BlockLen+len(slice)).
func (b *Blocked) Block(i int) []float64 { return b.blocks[i] }

// BlockRange returns the half-open cell range [lo, hi) block i covers.
func (b *Blocked) BlockRange(i int) (lo, hi int) {
	lo = i * b.blockLen
	return lo, lo + len(b.blocks[i])
}

// At returns cell i.
func (b *Blocked) At(i int) float64 {
	return b.blocks[i/b.blockLen][i%b.blockLen]
}

// Set writes cell i.
func (b *Blocked) Set(i int, v float64) {
	b.blocks[i/b.blockLen][i%b.blockLen] = v
}

// Add accumulates into cell i.
func (b *Blocked) Add(i int, v float64) {
	b.blocks[i/b.blockLen][i%b.blockLen] += v
}

// Dense returns the vector as one contiguous slice. A single-block vector
// returns its backing slice without copying (treat it as a view — writes
// alias); otherwise the blocks are gathered into a fresh allocation. Stages
// on the sharded fast path must not call this on large vectors — it is the
// re-densification the blocked pipeline exists to avoid — but it keeps the
// small-vector and legacy paths trivial.
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
	off := 0
	for _, bl := range b.blocks {
		copy(dst[off:], bl)
		off += len(bl)
	}
}

// CopyRange gathers cells [lo, lo+len(dst)) into dst.
func (b *Blocked) CopyRange(dst []float64, lo int) {
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
// an arbitrary cell range across block boundaries without copying.
func (b *Blocked) Segments(lo, hi int, fn func(off int, seg []float64)) {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("vector: segment range [%d,%d) outside length %d", lo, hi, b.n))
	}
	for lo < hi {
		bi := lo / b.blockLen
		base := bi * b.blockLen
		end := base + len(b.blocks[bi])
		if end > hi {
			end = hi
		}
		fn(lo, b.blocks[bi][lo-base:end-base])
		lo = end
	}
}

// Visit calls fn for every cell in ascending index order. Algorithms that
// accumulate per output cell in Visit order are bit-identical at any block
// count, because this order never depends on the blocking.
func (b *Blocked) Visit(fn func(i int, v float64)) {
	off := 0
	for _, bl := range b.blocks {
		for j, v := range bl {
			fn(off+j, v)
		}
		off += len(bl)
	}
}

// Clone returns a deep copy with the same blocking.
func (b *Blocked) Clone() *Blocked {
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
// lengths must match; the blockings need not.
func (b *Blocked) AddFrom(o *Blocked) error {
	if o.n != b.n {
		return fmt.Errorf("vector: adding a %d-cell vector into a %d-cell one", o.n, b.n)
	}
	o.Visit(func(i int, v float64) {
		if v != 0 {
			b.Add(i, v)
		}
	})
	return nil
}

// Sum returns a + b as a new vector with a's blocking. Per cell the
// addition is a[i] + b[i], independent of either blocking.
func Sum(a, b *Blocked) (*Blocked, error) {
	out := a.Clone()
	if err := out.AddFrom(b); err != nil {
		return nil, err
	}
	return out, nil
}

// Schedule assigns blocks to workers deterministically: block i goes to
// worker i mod workers, and each worker processes its blocks in ascending
// order. The assignment depends only on (blocks, workers) — never on
// runtime scheduling — so every stage that fans blocks out shares one
// reproducible plan. Workers with no blocks receive empty lists.
func Schedule(blocks, workers int) [][]int {
	if workers < 1 {
		workers = 1
	}
	if workers > blocks {
		workers = blocks
	}
	if blocks <= 0 {
		return nil
	}
	out := make([][]int, workers)
	for i := 0; i < blocks; i++ {
		w := i % workers
		out[w] = append(out[w], i)
	}
	return out
}

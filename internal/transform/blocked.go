package transform

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/vector"
)

// WHTBlocked applies the orthonormal Walsh–Hadamard transform in place to a
// blocked vector whose length and block length are both powers of two. The
// butterfly network is data-independent, so the output is bit-identical to
// WHT on the gathered dense vector at every block and worker count — but no
// contiguous full-length slice is ever needed. The transform states its
// length as its work (par.Workers): stages with span below the block length
// run block-locally, each worker transforming whole blocks; each remaining
// stage pairs whole blocks at equal offsets, its n/2 butterflies split
// across the workers, with a barrier between stages to keep the serial
// network's ascending-span order. workers ≤ 0 uses all CPUs; 1 runs
// serially. A single block is the dense WHTWorkers.
func WHTBlocked(b *vector.Blocked, workers int) {
	n := b.Len()
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("transform: length %d is not a power of two", n))
	}
	bl := b.BlockLen()
	if bl&(bl-1) != 0 {
		panic(fmt.Sprintf("transform: block length %d is not a power of two", bl))
	}
	nb := b.Blocks()
	if nb == 1 {
		WHTWorkers(b.Block(0), workers)
		return
	}
	workers = par.Workers(n, workers)

	// Stage 1: the h < blockLen butterflies stay inside one block.
	par.For(nb, workers, func(_, lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			whtButterflies(b.Block(bi))
		}
	})

	// Stage 2: spans h = blockLen, 2·blockLen, …, n/2 pair whole blocks: the
	// partner of cell j is j+h, which sits at the same offset in block
	// bi + h/blockLen. Butterfly t of a stage is offset t mod blockLen of
	// block pair t / blockLen, whose lower block has bit stride clear; each
	// worker walks its range of t in runs that stay inside one block pair.
	for h := bl; h < n; h <<= 1 {
		stride := h / bl
		par.For(n/2, workers, func(_, lo, hi int) {
			for t := lo; t < hi; {
				pair, off := t/bl, t%bl
				bi := pair/stride*2*stride + pair%stride
				run := min(bl-off, hi-t)
				lower := b.Block(bi)[off : off+run]
				upper := b.Block(bi + stride)[off : off+run]
				for j := range lower {
					a, c := lower[j], upper[j]
					lower[j], upper[j] = a+c, a-c
				}
				t += run
			}
		})
	}

	scale := 1 / math.Sqrt(float64(n))
	par.For(nb, workers, func(_, lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			seg := b.Block(bi)
			for i := range seg {
				seg[i] *= scale
			}
		}
	})
}

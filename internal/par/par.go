// Package par is the one fan-out helper behind every parallel stage of the
// release engine: the measure stage's per-block answers and noise, per-
// marginal recovery, the consistency projection, the Walsh–Hadamard
// butterflies and the cluster planner's pair sweep.
//
// A stage states how much work it has, in rows or cells, and an upper bound
// on its workers. Workers turns that into the number of goroutines that pay
// for themselves: one unless every worker would get at least Grain units.
// For then splits the stage's item range into a few contiguous chunks per
// goroutine, which the goroutines claim from an atomic counter — no
// per-item channel, no select, no scheduler round trip per item.
//
// Neither function changes what a stage computes. Every stage that uses
// them writes disjoint outputs per item and keeps its per-output
// accumulation order fixed, so its result is bit-identical at every worker
// count; the chunking decides only which goroutine does which item.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Grain is the least work, in rows or cells, that one extra goroutine must
// get before forking it pays: below it, waking a worker and joining it
// costs more than the work it takes over. It is the measured crossover of
// the engine's kernels on a 2-vCPU x86-64 box (GOAMD64=v1), two workers
// against one: perturbation breaks even near 4,096 rows, the consistency
// projection between 4,480 and 11,440 cells, the WHT between 8,192 and
// 16,384; at 16,384 (two grains) they run 1.63×, 1.1× and 1.42× faster.
// It is a size, never a workload identity, and it has no knob: a caller's
// worker count stays an upper bound.
const Grain = 1 << 13

// Workers returns how many goroutines should share work units of work
// under the upper bound max (max ≤ 0 means GOMAXPROCS): the most that
// still gives each at least Grain units, and never fewer than one.
func Workers(work, max int) int {
	per := work / Grain
	if per < 2 {
		return 1 // decided before GOMAXPROCS, which takes a runtime lock
	}
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	return min(per, max)
}

// chunksPerWorker is how many contiguous chunks For cuts per goroutine. One
// chunk each would leave a stage waiting on whichever goroutine lost its
// CPU (to the garbage collector or another request) for its whole share;
// four let the others take over three quarters of it, and each chunk is
// still at least a quarter grain.
const chunksPerWorker = 4

// For runs fn over the items [0, n) and returns when all are done. With
// workers ≤ 1 (or n ≤ 1) it is the plain call fn(0, 0, n) and starts
// nothing. Otherwise it cuts [0, n) into up to chunksPerWorker·workers
// contiguous chunks of near-equal length, claimed in order by workers
// goroutines (the calling one included): fn(worker, lo, hi) runs once per
// chunk, worker ∈ [0, workers) naming the goroutine, so per-goroutine
// scratch can be kept in a slice indexed by it. fn must touch only the
// outputs of its own items. Callers pick workers through Workers.
func For(n, workers int, fn func(worker, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	chunks := min(n, chunksPerWorker*workers)
	var next atomic.Int64
	run := func(worker int) {
		for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
			fn(worker, c*n/chunks, (c+1)*n/chunks)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}

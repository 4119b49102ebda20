package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	for _, tc := range []struct{ work, max, want int }{
		{0, 8, 1},
		{Grain - 1, 8, 1},
		{Grain, 8, 1},
		{2*Grain - 1, 8, 1},
		{2 * Grain, 8, 2},
		{3*Grain + 5, 8, 3},
		{100 * Grain, 8, 8},
		{100 * Grain, 1, 1},
	} {
		if got := Workers(tc.work, tc.max); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.work, tc.max, got, tc.want)
		}
	}
	if got, want := Workers(1<<40, 0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(huge, 0) = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestForCoversEveryItemOnce: the chunks tile [0, n) exactly — contiguous,
// non-empty, each item visited once — at every worker count, and every
// goroutine index stays inside [0, workers).
func TestForCoversEveryItemOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 2000} {
			seen := make([]int32, n)
			var chunks atomic.Int32
			For(n, workers, func(worker, lo, hi int) {
				if lo >= hi {
					t.Errorf("n=%d workers=%d: empty chunk [%d,%d)", n, workers, lo, hi)
				}
				if worker < 0 || worker >= max(workers, 1) {
					t.Errorf("n=%d workers=%d: worker index %d", n, workers, worker)
				}
				chunks.Add(1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: item %d visited %d times", n, workers, i, c)
				}
			}
			want := min(n, 1)
			if w := min(workers, n); w > 1 {
				want = min(n, chunksPerWorker*w)
			}
			if got := int(chunks.Load()); got != want {
				t.Errorf("n=%d workers=%d: %d chunks, want %d", n, workers, got, want)
			}
		}
	}
}

// TestForWorkerScratchIsPrivate: a slice indexed by the worker argument is
// written by one goroutine per slot — the pattern the perturb stage keeps
// its per-worker noise Source in (run with -race).
func TestForWorkerScratchIsPrivate(t *testing.T) {
	const n, workers = 1 << 12, 4
	scratch := make([]int, workers)
	For(n, workers, func(worker, lo, hi int) {
		scratch[worker] += hi - lo
	})
	total := 0
	for _, v := range scratch {
		total += v
	}
	if total != n {
		t.Fatalf("per-worker scratch sums to %d, want %d", total, n)
	}
}

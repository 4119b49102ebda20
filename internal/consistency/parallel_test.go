package consistency

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/bits"
	"repro/internal/marginal"
	"repro/internal/par"
)

// TestL2WeightedWorkersBitIdentity: the projection is bit-identical to the
// serial one at every worker count, on small workloads of many low-order
// marginals and of one dominant marginal with low-order companions (these
// sit below the grain; TestL2WeightedWorkersGrainBitIdentity covers the
// forked path).
func TestL2WeightedWorkersBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	workloads := []*marginal.Workload{
		marginal.AllKWay(8, 2),
		marginal.AllKWay(8, 5),
		// One full-order marginal plus low-order companions: |F| is the
		// whole domain.
		marginal.MustWorkload(10, []bits.Mask{bits.Full(10), 0x003, 0x300, 0x0f0}),
	}
	for wi, w := range workloads {
		noisy := make([]float64, w.TotalCells())
		for i := range noisy {
			noisy[i] = rng.NormFloat64() * 10
		}
		weight := make([]float64, len(w.Marginals))
		for i := range weight {
			weight[i] = 0.25 + rng.Float64()
		}
		if wi == 2 {
			// An excluded marginal must not contribute; legal here because
			// the full-order marginal still observes all its coefficients.
			weight[1] = 0
		}
		for _, wgt := range [][]float64{nil, weight} {
			ref, err := L2WeightedWorkers(w, noisy, wgt, 1)
			if err != nil {
				t.Fatalf("workload %d: serial: %v", wi, err)
			}
			for _, workers := range []int{2, 4, 0} {
				got, err := L2WeightedWorkers(w, noisy, wgt, workers)
				if err != nil {
					t.Fatalf("workload %d workers=%d: %v", wi, workers, err)
				}
				for i := range ref.Answers {
					if math.Float64bits(got.Answers[i]) != math.Float64bits(ref.Answers[i]) {
						t.Fatalf("workload %d workers=%d: answer %d = %v, want %v",
							wi, workers, i, got.Answers[i], ref.Answers[i])
					}
				}
				if len(got.Coefficients) != len(ref.Coefficients) {
					t.Fatalf("workload %d workers=%d: %d coefficients, want %d",
						wi, workers, len(got.Coefficients), len(ref.Coefficients))
				}
				for c, v := range ref.Coefficients {
					if math.Float64bits(got.Coefficients[c]) != math.Float64bits(v) {
						t.Fatalf("workload %d workers=%d: coefficient %v differs", wi, workers, w.FourierSupport()[c])
					}
				}
			}
		}
	}
}

// TestL2WeightedWorkersStillConsistent: the parallel projection still lands
// on mutually consistent marginals.
func TestL2WeightedWorkersStillConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := marginal.AllKWay(7, 3)
	noisy := make([]float64, w.TotalCells())
	for i := range noisy {
		noisy[i] = rng.NormFloat64() * 5
	}
	res, err := L2WeightedWorkers(w, noisy, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !IsConsistent(w, res.Answers, 1e-6) {
		t.Fatal("parallel projection produced inconsistent marginals")
	}
}

// cellsWorkload builds a d-dimensional workload with exactly cells released
// cells: one marginal per set bit of cells, highest order first, each mask
// a distinct run of contiguous attributes.
func cellsWorkload(d, cells int) *marginal.Workload {
	var masks []bits.Mask
	for k := d; k >= 0; k-- {
		for s := 0; s+k <= d && cells >= 1<<uint(k); s++ {
			masks = append(masks, bits.Mask((1<<uint(k))-1)<<uint(s))
			cells -= 1 << uint(k)
		}
	}
	if cells != 0 {
		panic("consistency: cell count out of reach")
	}
	return marginal.MustWorkload(d, masks)
}

// TestL2WeightedWorkersGrainBitIdentity: the projection is bit-identical to
// the serial one at released-cell counts around the grain (serial at and
// just above it, forked from twice it) for workers ∈ {2, 3, 8}, with and
// without weights.
func TestL2WeightedWorkersGrainBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, cells := range []int{
		par.Grain - 1, par.Grain, par.Grain + 1,
		2*par.Grain - 1, 2 * par.Grain, 2*par.Grain + 1, 8*par.Grain + 37,
	} {
		w := cellsWorkload(16, cells)
		noisy := make([]float64, cells)
		for i := range noisy {
			noisy[i] = rng.NormFloat64() * 10
		}
		weight := make([]float64, len(w.Marginals))
		for i := range weight {
			weight[i] = 0.25 + rng.Float64()
		}
		for _, wgt := range [][]float64{nil, weight} {
			ref, err := L2WeightedWorkers(w, noisy, wgt, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, err := L2WeightedWorkers(w, noisy, wgt, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ref.Answers {
					if math.Float64bits(got.Answers[i]) != math.Float64bits(ref.Answers[i]) {
						t.Fatalf("cells=%d workers=%d weighted=%v: answer %d = %v, want %v",
							cells, workers, wgt != nil, i, got.Answers[i], ref.Answers[i])
					}
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestL2WeightedWorkersBelowGrainAllocs: below the grain eight workers run
// the serial projection and allocate exactly what one worker does. GC is
// paused so the scratch pool keeps its buffers between runs.
func TestL2WeightedWorkersBelowGrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so allocation counts vary")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := cellsWorkload(16, 2*par.Grain-1)
	noisy := make([]float64, w.TotalCells())
	run := func(workers int) {
		if _, err := L2WeightedWorkers(w, noisy, nil, workers); err != nil {
			t.Fatal(err)
		}
	}
	run(8)
	serial := testing.AllocsPerRun(10, func() { run(1) })
	eight := testing.AllocsPerRun(10, func() { run(8) })
	if serial != eight {
		t.Fatalf("%d cells: workers=8 allocates %v, workers=1 %v", w.TotalCells(), eight, serial)
	}
}

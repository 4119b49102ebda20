package strategy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/marginal"
	"repro/internal/par"
	"repro/internal/vector"
)

// TestTrueAnswersBlockingAndWorkersBitIdentical: every strategy's S·x over
// a blocked input at any worker count is bit-identical to the serial
// answers over the dense input — the contract that lets the engine measure
// a dataset-store aggregate in the form it is held. The domain is large
// enough (2^15 cells) that identity's copy and Fourier's transform fork at
// three workers. The Adult-shaped sparse counts (4,000 rows over 2^23
// cells) make Workload, Fourier's sparse route and Cluster split their
// marginals at three workers.
func TestTrueAnswersBlockingAndWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 15
	n := 1 << uint(d)
	if par.Workers(n, 3) != 3 {
		t.Fatalf("a %d-cell copy does not fork at three workers; grow d", n)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(11)) * rng.Float64()
	}
	w := marginal.AllKWay(d, 2)
	for _, s := range []Strategy{Identity{}, Workload{}, Fourier{}, Cluster{}} {
		plan, err := s.Plan(w)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		want := plan.Answers(x)
		for _, xblocks := range []int{1, 4, 16} {
			xv := vector.New(n, xblocks)
			xv.Scatter(x)
			for _, workers := range []int{1, 3} {
				got := plan.TrueAnswers(xv, workers)
				if len(got) != len(want) {
					t.Fatalf("%s xblocks=%d workers=%d: %d rows, want %d", s.Name(), xblocks, workers, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s xblocks=%d workers=%d: row %d = %v, want %v",
							s.Name(), xblocks, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
	tab := dataset.SyntheticAdult(3, 4000)
	dense, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	var cells []int32
	var vals []float64
	for c, v := range dense {
		if v != 0 {
			cells, vals = append(cells, int32(c)), append(vals, v)
		}
	}
	sp, err := vector.NewSparse(len(dense), vector.DefaultBlockLen, cells, vals)
	if err != nil {
		t.Fatal(err)
	}
	w = marginal.SchemaKWay(tab.Schema, 2)
	if par.Workers(len(w.Marginals)*len(cells), 3) != 3 {
		t.Fatalf("%d non-zeros over %d marginals do not fork at three workers", len(cells), len(w.Marginals))
	}
	for _, s := range []Strategy{Workload{}, Fourier{}, Cluster{}} {
		plan, err := s.Plan(w)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		want := plan.Answers(dense)
		for _, workers := range []int{1, 3} {
			got := plan.TrueAnswers(sp, workers)
			if len(got) != len(want) {
				t.Fatalf("%s sparse workers=%d: %d rows, want %d", s.Name(), workers, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s sparse workers=%d: row %d = %v, want %v", s.Name(), workers, i, got[i], want[i])
				}
			}
		}
	}
}

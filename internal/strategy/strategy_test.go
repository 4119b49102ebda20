package strategy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/budget"
	"repro/internal/marginal"
	"repro/internal/noise"
)

func testX(rng *rand.Rand, d int) []float64 {
	x := make([]float64, 1<<uint(d))
	for i := range x {
		x[i] = float64(rng.Intn(8))
	}
	return x
}

func pureParams(eps float64) noise.Params {
	return noise.Params{Type: noise.PureDP, Epsilon: eps, Neighbor: noise.AddRemove}
}

// noiselessRoundTrip verifies that TrueAnswers → Recover with zero noise
// reproduces the exact workload answers for a strategy.
func noiselessRoundTrip(t *testing.T, s Strategy, w *marginal.Workload, x []float64) {
	t.Helper()
	plan, err := s.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	z := plan.Answers(x)
	if len(z) != plan.Rows() {
		t.Fatalf("%s: TrueAnswers length %d != Rows %d", s.Name(), len(z), plan.Rows())
	}
	groupVar := make([]float64, len(plan.Specs))
	for i := range groupVar {
		groupVar[i] = 1 // nominal; zero noise injected
	}
	answers, cellVar, err := plan.RecoverDense(z, groupVar)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Eval(x)
	if len(answers) != len(truth) {
		t.Fatalf("%s: answer length %d != %d", s.Name(), len(answers), len(truth))
	}
	for i := range truth {
		if math.Abs(answers[i]-truth[i]) > 1e-6 {
			t.Fatalf("%s: answer %d = %v, want %v", s.Name(), i, answers[i], truth[i])
		}
	}
	if len(cellVar) != len(w.Marginals) {
		t.Fatalf("%s: cellVar length %d != %d marginals", s.Name(), len(cellVar), len(w.Marginals))
	}
	for i, v := range cellVar {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("%s: cellVar[%d] = %v", s.Name(), i, v)
		}
	}
}

func TestNoiselessRoundTripAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	for _, s := range []Strategy{Identity{}, Workload{}, Fourier{}, Cluster{}} {
		noiselessRoundTrip(t, s, w, x)
	}
}

func TestNoiselessRoundTripMixedOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := 5
	x := testX(rng, d)
	w := marginal.MustWorkload(d, []bits.Mask{0b00001, 0b00111, 0b11000, 0b11111})
	for _, s := range []Strategy{Identity{}, Workload{}, Fourier{}, Cluster{}} {
		noiselessRoundTrip(t, s, w, x)
	}
}

func TestIdentitySpecs(t *testing.T) {
	w := marginal.AllKWay(4, 1)
	plan, err := Identity{}.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Specs) != 1 {
		t.Fatalf("identity has %d groups, want 1", len(plan.Specs))
	}
	if plan.Specs[0].Count != 16 || plan.Specs[0].C != 1 || plan.Specs[0].RowWeight != 4 {
		t.Fatalf("identity spec = %+v", plan.Specs[0])
	}
}

func TestWorkloadSpecs(t *testing.T) {
	w := marginal.MustWorkload(3, []bits.Mask{0b100, 0b110})
	plan, err := Workload{}.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Specs) != 2 {
		t.Fatalf("workload has %d groups, want 2", len(plan.Specs))
	}
	if plan.Specs[0].Count != 2 || plan.Specs[1].Count != 4 {
		t.Fatalf("workload group sizes %d,%d, want 2,4", plan.Specs[0].Count, plan.Specs[1].Count)
	}
}

func TestFourierSpecsMatchLemma42(t *testing.T) {
	// For all k-way marginals, the weight of coefficient β must be
	// 2^{d−k}·C(d−‖β‖, k−‖β‖)  (b_i = 2^{d−k+1}·C(…) with b = 2w).
	d, k := 6, 2
	w := marginal.AllKWay(d, k)
	plan, err := Fourier{}.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	support := w.FourierSupport()
	if len(plan.Specs) != len(support) {
		t.Fatalf("fourier has %d groups, want %d", len(plan.Specs), len(support))
	}
	for i, b := range support {
		want := math.Pow(2, float64(d-k)) * bits.Binomial(d-b.Count(), k-b.Count())
		if math.Abs(plan.Specs[i].RowWeight-want) > 1e-9 {
			t.Fatalf("β=%v weight %v, want %v", b, plan.Specs[i].RowWeight, want)
		}
		wantC := 1 / math.Sqrt(float64(int64(1)<<uint(d)))
		if math.Abs(plan.Specs[i].C-wantC) > 1e-12 {
			t.Fatalf("β=%v C %v, want %v", b, plan.Specs[i].C, wantC)
		}
	}
}

func TestClusterMergesAllKWayOverlap(t *testing.T) {
	// For heavily overlapping 1-way marginals over a small domain, merging
	// into fewer material marginals is profitable; for far-apart ones the
	// clustering must keep them separate.
	w := marginal.AllKWay(3, 1)
	mats := Cluster{}.Materials(w)
	if len(mats) == 0 || len(mats) > 3 {
		t.Fatalf("unexpected material count %d", len(mats))
	}
	// Every queried marginal must be dominated by some material.
	for _, m := range w.Marginals {
		ok := false
		for _, mu := range mats {
			if mu.Dominates(m.Alpha) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("marginal %v not covered by materials %v", m.Alpha, mats)
		}
	}
}

func TestClusterKeepsDisjointHighOrderSeparate(t *testing.T) {
	// Two disjoint 3-way marginals over d=12: merging would cost 2^6 cells
	// vs 2·2^3; the merge increases the inner sum by a factor 4 while g²
	// shrinks by 4 — a tie at best, so greedy only merges when strictly
	// better. With three disjoint 3-ways a full merge costs 2^9·3 ≫ 9·3·2^3.
	w := marginal.MustWorkload(12, []bits.Mask{0b000000000111, 0b000111000000, 0b111000000000})
	mats := Cluster{}.Materials(w)
	if len(mats) != 3 {
		t.Fatalf("disjoint 3-way marginals merged: materials %v", mats)
	}
}

func TestClusterObjectiveDecreasesMonotonically(t *testing.T) {
	w := marginal.AllKWay(4, 1)
	unlimited := greedyCluster(w, 0, 1)
	capped := greedyCluster(w, 1, 1)
	if clusterObjective(unlimited.materials, unlimited.members) >
		clusterObjective(capped.materials, capped.members)+1e-9 {
		t.Fatal("more merges must not increase the greedy objective")
	}
}

func TestClusterAssignmentsValid(t *testing.T) {
	w := marginal.AllKWay(5, 2)
	cl := greedyCluster(w, 0, 1)
	if len(cl.assign) != len(w.Marginals) {
		t.Fatal("assignment length mismatch")
	}
	for qi, ci := range cl.assign {
		if ci < 0 || ci >= len(cl.materials) {
			t.Fatalf("marginal %d assigned to bad cluster %d", qi, ci)
		}
		if !cl.materials[ci].Dominates(w.Marginals[qi].Alpha) {
			t.Fatalf("cluster %v does not dominate member %v", cl.materials[ci], w.Marginals[qi].Alpha)
		}
	}
	total := 0
	for _, n := range cl.members {
		total += n
	}
	if total != len(w.Marginals) {
		t.Fatalf("member counts sum to %d, want %d", total, len(w.Marginals))
	}
}

func TestEndToEndVarianceMatchesAnalytic(t *testing.T) {
	// Monte-Carlo: empirical per-cell variance ≈ plan's cellVar for the
	// Workload strategy with optimal budgets.
	rng := rand.New(rand.NewSource(3))
	d := 4
	x := testX(rng, d)
	w := marginal.MustWorkload(d, []bits.Mask{0b0001, 0b0111})
	plan, err := Workload{}.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	p := pureParams(1)
	alloc, err := budget.OptimalSpecs(plan.Specs, p)
	if err != nil {
		t.Fatal(err)
	}
	groupVar := budget.SpecVariances(alloc.Eta, p)
	truth := w.Eval(x)
	src := noise.NewSource(4)
	const trials = 30000
	offsets := plan.GroupOffsets()
	sumSq := make([]float64, len(truth))
	for tr := 0; tr < trials; tr++ {
		z := plan.Answers(x)
		for g, spec := range plan.Specs {
			for r := 0; r < spec.Count; r++ {
				z[offsets[g]+r] += p.RowNoise(src, alloc.Eta[g])
			}
		}
		answers, _, err := plan.RecoverDense(z, groupVar)
		if err != nil {
			t.Fatal(err)
		}
		for i := range answers {
			dd := answers[i] - truth[i]
			sumSq[i] += dd * dd
		}
	}
	_, cellVar, _ := plan.RecoverDense(plan.Answers(x), groupVar)
	_ = cellVar
	wOffsets := w.Offsets()
	for mi := range w.Marginals {
		for c := 0; c < w.Marginals[mi].Cells(); c++ {
			i := wOffsets[mi] + c
			got := sumSq[i] / trials
			want := groupVar[mi] // Workload: cellVar = groupVar
			if math.Abs(got-want)/want > 0.08 {
				t.Fatalf("cell %d: empirical var %v vs analytic %v", i, got, want)
			}
		}
	}
}

func TestIdentityCellVarianceScalesWithOrder(t *testing.T) {
	w := marginal.MustWorkload(6, []bits.Mask{0b000001, 0b000111})
	plan, _ := Identity{}.Plan(w)
	z := plan.Answers(make([]float64, 64))
	_, cellVar, err := plan.RecoverDense(z, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	// 1-way marginal cell sums 2^5 counts, 3-way sums 2^3.
	if math.Abs(cellVar[0]-32*3) > 1e-9 || math.Abs(cellVar[1]-8*3) > 1e-9 {
		t.Fatalf("identity cellVar = %v, want [96 24]", cellVar)
	}
}

func TestPlanRowsAndOffsets(t *testing.T) {
	w := marginal.MustWorkload(3, []bits.Mask{0b100, 0b110})
	plan, _ := Workload{}.Plan(w)
	if plan.Rows() != 6 {
		t.Fatalf("Rows = %d, want 6", plan.Rows())
	}
	off := plan.GroupOffsets()
	if off[0] != 0 || off[1] != 2 {
		t.Fatalf("GroupOffsets = %v", off)
	}
}

func TestRecoverInputValidation(t *testing.T) {
	w := marginal.AllKWay(3, 1)
	for _, s := range []Strategy{Identity{}, Workload{}, Fourier{}, Cluster{}} {
		plan, err := s.Plan(w)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := plan.RecoverDense([]float64{1}, []float64{1}); err == nil {
			t.Errorf("%s accepted malformed recover input", s.Name())
		}
	}
}

func BenchmarkFourierPlanNLTCSQ2(b *testing.B) {
	w := marginal.AllKWay(16, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (Fourier{}).Plan(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterSearchQ2d8(b *testing.B) {
	w := marginal.AllKWay(8, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = greedyCluster(w, 0, 1)
	}
}

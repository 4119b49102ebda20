package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/consistency"
	"repro/internal/marginal"
	"repro/internal/par"
	"repro/internal/strategy"
)

// grainSizes straddles both decisions par.Workers makes: the grain itself
// (still serial) and twice the grain (the first size two workers split),
// plus one size far above it where eight workers fork.
var grainSizes = []int{
	par.Grain - 1, par.Grain, par.Grain + 1,
	2*par.Grain - 1, 2 * par.Grain, 2*par.Grain + 1,
	8*par.Grain + 37,
}

var grainWorkers = []int{2, 3, 8}

// mixedGroups tiles rows with one-row groups, a multi-block group and a
// ragged tail, so chunk boundaries land both between and inside groups.
func mixedGroups(rows int) []NoiseGroup {
	var groups []NoiseGroup
	start := 0
	add := func(n int) {
		if n > rows-start {
			n = rows - start
		}
		if n > 0 {
			groups = append(groups, NoiseGroup{Start: start, Count: n, Eta: 0.25 + float64(len(groups)%5)/8})
			start += n
		}
	}
	for i := 0; i < 137; i++ {
		add(1)
	}
	add(3*noiseBlock + 17)
	for start < rows {
		add(noiseBlock/3 + len(groups))
	}
	return groups
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// oneRowGroups gives every row its own group (the Fourier strategy's
// shape), so every row starts a noise block and a chunk boundary that
// drops or repeats a row changes the output.
func oneRowGroups(rows int) []NoiseGroup {
	groups := make([]NoiseGroup, rows)
	for g := range groups {
		groups[g] = NoiseGroup{Start: g, Count: 1, Eta: 0.5 + float64(g%3)}
	}
	return groups
}

// TestPerturbGrainBitIdentity: perturbation is bit-identical to the serial
// pass at every size around the grain and every worker count.
func TestPerturbGrainBitIdentity(t *testing.T) {
	p := pureParams(1)
	for _, rows := range grainSizes {
		for layout, groups := range map[string][]NoiseGroup{"mixed": mixedGroups(rows), "one-row": oneRowGroups(rows)} {
			want := make([]float64, rows)
			Perturb(want, groups, p, 77, 1)
			for _, workers := range grainWorkers {
				got := make([]float64, rows)
				Perturb(got, groups, p, 77, workers)
				sameBits(t, fmt.Sprintf("%s rows=%d workers=%d", layout, rows, workers), got, want)
			}
		}
	}
}

// chunkPlan is a synthetic plan whose recovery is a cheap, order-sensitive
// function of the answers, so the recover stage's work size can be set to
// any value around the grain.
func chunkPlan(w *marginal.Workload) *strategy.Plan {
	offsets := w.Offsets()
	rm := func(i int, z []float64, _ []float64) ([]float64, float64, error) {
		m := w.Marginals[i]
		out := make([]float64, m.Cells())
		for c := range out {
			for r := offsets[i] + c; r < len(z); r += w.TotalCells() {
				out[c] = out[c]*0.5 + z[r]
			}
		}
		return out, float64(i), nil
	}
	return &strategy.Plan{
		Strategy: "chunk",
		Recover: func(z []float64, groupVar []float64) ([]float64, []float64, error) {
			var answers []float64
			cellVar := make([]float64, len(w.Marginals))
			for i := range w.Marginals {
				cells, v, err := rm(i, z, groupVar)
				if err != nil {
					return nil, nil, err
				}
				answers = append(answers, cells...)
				cellVar[i] = v
			}
			return answers, cellVar, nil
		},
		RecoverMarginal: rm,
	}
}

func randomAnswers(rng *rand.Rand, n int) []float64 {
	z := make([]float64, n)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	return z
}

// TestRecoverGrainBitIdentity: parallel recovery equals serial recovery bit
// for bit at work sizes len(z)+TotalCells() around the grain, for a
// synthetic plan sized exactly and for real identity and Fourier plans.
func TestRecoverGrainBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := marginal.AllKWay(10, 2)
	check := func(name string, w *marginal.Workload, plan *strategy.Plan, z []float64, groupVar []float64) {
		t.Helper()
		want, wantVar, err := Recoverer{}.Recover(context.Background(), w, plan, z, groupVar, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range grainWorkers {
			got, gotVar, err := Recoverer{}.Recover(context.Background(), w, plan, z, groupVar, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s workers=%d", name, workers), got, want)
			sameBits(t, fmt.Sprintf("%s workers=%d variances", name, workers), gotVar, wantVar)
		}
	}
	for _, work := range grainSizes {
		z := randomAnswers(rng, work-w.TotalCells())
		check(fmt.Sprintf("work=%d", work), w, chunkPlan(w), z, nil)
	}
	for _, s := range []strategy.Strategy{strategy.Identity{}, strategy.Fourier{}} {
		for _, d := range []int{12, 13, 14, 16} {
			w := marginal.AllKWay(d, 2)
			plan, err := s.Plan(w)
			if err != nil {
				t.Fatal(err)
			}
			z := randomAnswers(rng, plan.Rows())
			groupVar := make([]float64, len(plan.Specs))
			for g := range groupVar {
				groupVar[g] = 1 + rng.Float64()
			}
			check(fmt.Sprintf("%s d=%d", s.Name(), d), w, plan, z, groupVar)
		}
	}
}

// TestConsistNaNVarianceRefused: the weighted-L2 stage maps a zero or
// infinite variance to weight 0, but a NaN variance is a fault upstream
// and must fail the release rather than poison every answer.
func TestConsistNaNVarianceRefused(t *testing.T) {
	w := marginal.AllKWay(4, 2)
	answers := make([]float64, w.TotalCells())
	cellVar := make([]float64, len(w.Marginals))
	for i := range cellVar {
		cellVar[i] = 1
	}
	cfg := Config{Consistency: WeightedL2Consistency}
	if _, _, err := (Consister{}).Consist(context.Background(), w, answers, cellVar, cfg, 1); err != nil {
		t.Fatalf("finite variances: %v", err)
	}
	cellVar[2] = math.NaN()
	if _, _, err := (Consister{}).Consist(context.Background(), w, answers, cellVar, cfg, 1); err == nil {
		t.Fatal("NaN cell variance accepted")
	}
}

// BenchmarkStageGrain times every engine stage that goes through par
// serially and at GOMAXPROCS, at sizes on both sides of the grain: the
// crossover table behind par.Grain. Below the grain both columns run the
// same serial code; above it the second column forks.
func BenchmarkStageGrain(b *testing.B) {
	counts := []int{1, runtime.GOMAXPROCS(0)}
	if counts[1] == 1 {
		counts[1] = 2 // single-core box: still time the forked path
	}
	p := pureParams(1)
	type perturbCase struct {
		name   string
		groups []NoiseGroup
	}
	ones := make([]NoiseGroup, 137)
	for g := range ones {
		ones[g] = NoiseGroup{Start: g, Count: 1, Eta: 0.5}
	}
	perturbs := []perturbCase{{"rows=137x1", ones}}
	for _, rows := range []int{1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 18} {
		perturbs = append(perturbs, perturbCase{fmt.Sprintf("rows=%d", rows), []NoiseGroup{{Start: 0, Count: rows, Eta: 0.5}}})
	}
	for _, pc := range perturbs {
		last := pc.groups[len(pc.groups)-1]
		z := make([]float64, last.Start+last.Count)
		for _, workers := range counts {
			b.Run(fmt.Sprintf("perturb/%s/workers=%d", pc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Perturb(z, pc.groups, p, 42, workers)
				}
			})
		}
	}

	rng := rand.New(rand.NewSource(3))
	consists := []struct{ d, k int }{{16, 1}, {16, 2}, {16, 3}, {16, 4}, {14, 10}}
	for _, c := range consists {
		w := marginal.AllKWay(c.d, c.k)
		noisy := make([]float64, w.TotalCells())
		for i := range noisy {
			noisy[i] = rng.NormFloat64() * 8
		}
		for _, workers := range counts {
			b.Run(fmt.Sprintf("consist/d=%d,k=%d,cells=%d/workers=%d", c.d, c.k, len(noisy), workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := consistency.L2WeightedWorkers(w, noisy, nil, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	w := marginal.AllKWay(16, 2)
	for _, s := range []strategy.Strategy{strategy.Identity{}, strategy.Fourier{}} {
		plan, err := s.Plan(w)
		if err != nil {
			b.Fatal(err)
		}
		z := randomAnswers(rng, plan.Rows())
		groupVar := make([]float64, len(plan.Specs))
		for g := range groupVar {
			groupVar[g] = 1
		}
		for _, workers := range counts {
			b.Run(fmt.Sprintf("recover/%s,d=16,k=2,work=%d/workers=%d", s.Name(), len(z)+w.TotalCells(), workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := (Recoverer{}).Recover(context.Background(), w, plan, z, groupVar, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

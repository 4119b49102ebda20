package strategy

import (
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/budget"
	"repro/internal/marginal"
	"repro/internal/par"
	"repro/internal/vector"
)

// Cluster reproduces the greedy clustered-marginals strategy of Ding et
// al. [6]: the queried marginals are partitioned into clusters, each cluster
// answered through one "material" marginal — the union of its members'
// attribute sets — whose noisy cells are aggregated to answer every member.
//
// The search is agglomerative: starting from singleton clusters, repeatedly
// merge the pair of clusters that most reduces the total output variance
// under uniform budgeting (the regime of [6]); stop when no merge improves.
//
// # Incremental objective
//
// The objective of a clustering is g²·S where g is the live-cluster count
// and S = Σ_c n_c·2^{‖μ_c‖} (clusterObjective). Recomputing it from scratch
// per candidate pair — the paper's "very expensive clustering step"
// (Figure 6) — costs Θ(ℓ) per candidate, Θ(ℓ⁴) end-to-end. greedyCluster
// instead maintains S and the per-cluster terms t_c = n_c·2^{‖μ_c‖}, so a
// candidate merge (i, j) scores in O(1):
//
//	obj(i, j) = (g−1)²·(S − t_i − t_j + (n_i+n_j)·2^{‖μ_i∨μ_j‖})
//
// Θ(ℓ²) per sweep, Θ(ℓ³) total. Every term is an integer (n ≤ ℓ times an
// exact power of two ≤ 2^MaxDim), so for any workload this package can
// represent (d ≤ 30, ℓ well below 2^22) all sums stay below 2^53 and both
// the incremental expression and the naive left-to-right summation are
// EXACT — the incremental search is bit-identical to the retained naive
// oracle (greedyClusterNaive), which the property tests pin.
//
// # Tie-break contract
//
// Candidates are scored in ascending lexicographic (i, j) order with a
// strict less-than, so among equal-scoring merges the lowest (i, j) wins.
// The parallel sweep preserves this exactly: each worker scans a strided
// subset of i-rows in ascending order, keeping its first local minimum, and
// the reduction prefers the smaller objective, then the smaller (i, j). The
// chosen clustering is therefore bit-identical at every worker count.
type Cluster struct {
	// MaxMerges optionally caps the number of merges (0 = unlimited); used
	// by tests to exercise intermediate states.
	MaxMerges int
}

// Name implements Strategy.
func (Cluster) Name() string { return "C" }

// PlanCacheKey implements PlanKeyer: MaxMerges changes the clustering, so
// differently capped instances must not share cached plans. The worker
// count deliberately stays out — the search is bit-identical at every
// worker count, so parallelism must not fragment the cache.
func (c Cluster) PlanCacheKey() string { return fmt.Sprintf("C#%d", c.MaxMerges) }

// clustering is the output of the greedy search.
type clustering struct {
	// materials are the cluster centroid masks, one per cluster.
	materials []bits.Mask
	// assign maps each workload marginal index to its cluster.
	assign []int
	// members counts marginals per cluster.
	members []int
}

// clusterTerm is one cluster's objective contribution n·2^k, computed with
// math.Ldexp: scaling by 2^k is exact in float64 at any k, where the old
// int64(1)<<k formulation silently overflowed to a negative term at k ≥ 63.
// (Masks are currently ≤ bits.MaxDim wide, so the overflow was latent, but
// the objective must not be the thing that breaks if the mask type widens.)
func clusterTerm(n, k int) float64 { return math.Ldexp(float64(n), k) }

// clusterObjective is the total output variance under uniform budgeting, up
// to the constant c/ε'²: g²·Σ_c n_c·2^{‖μ_c‖}, where g is the number of
// clusters (Section 1's uniform analysis applied to the cluster strategy).
func clusterObjective(materials []bits.Mask, members []int) float64 {
	g := 0
	inner := 0.0
	for c, mu := range materials {
		if members[c] == 0 {
			continue
		}
		g++
		inner += clusterTerm(members[c], mu.Count())
	}
	return float64(g) * float64(g) * inner
}

// mergeCand is one candidate merge and its objective value.
type mergeCand struct {
	obj  float64
	i, j int
}

// beats reports whether a wins the argmin reduction against b: smaller
// objective first, then — the tie-break contract — the lexicographically
// lower (i, j). An empty candidate (i < 0) never beats, always loses.
func (a mergeCand) beats(b mergeCand) bool {
	switch {
	case a.i < 0:
		return false
	case b.i < 0:
		return true
	case a.obj != b.obj:
		return a.obj < b.obj
	case a.i != b.i:
		return a.i < b.i
	default:
		return a.j < b.j
	}
}

// clusterSweep scores every candidate pair (i, j) with i ≡ start (mod
// stride), j > i, in ascending order, returning the first minimum — which,
// because the scan order is ascending, is the lexicographically lowest
// minimum of the scanned subset.
func clusterSweep(materials []bits.Mask, members []int, term []float64, s, gm1 float64, start, stride int) mergeCand {
	best := mergeCand{obj: math.Inf(1), i: -1, j: -1}
	ell := len(materials)
	for i := start; i < ell; i += stride {
		if members[i] == 0 {
			continue
		}
		ti, mi, ni := term[i], materials[i], members[i]
		for j := i + 1; j < ell; j++ {
			if members[j] == 0 {
				continue
			}
			obj := gm1 * gm1 * (s - ti - term[j] + clusterTerm(ni+members[j], (mi|materials[j]).Count()))
			if obj < best.obj {
				best = mergeCand{obj: obj, i: i, j: j}
			}
		}
	}
	return best
}

// greedyCluster runs the agglomerative search with incremental objective
// maintenance (see the type comment), fanning the pair sweep across workers
// (0 = all CPUs, 1 = serial). The sweep states ℓ² as its work — a pair
// score costs about two rows of the other stages — so it forks only from
// ℓ = 128 on two workers: on a 2-vCPU box the forked sweep measured 0.7×
// serial at ℓ = 64, 0.9–1.2× at ℓ = 128 and about 1.4× at ℓ = 256 and
// 512. The worker count never changes a single bit of the clustering —
// the deterministic argmin reduction above — and the result is
// bit-identical to greedyClusterNaive, the retained Θ(ℓ⁴) oracle.
func greedyCluster(w *marginal.Workload, maxMerges, workers int) *clustering {
	ell := len(w.Marginals)
	materials := make([]bits.Mask, ell)
	members := make([]int, ell)
	assign := make([]int, ell)
	term := make([]float64, ell)
	for i, m := range w.Marginals {
		materials[i] = m.Alpha
		members[i] = 1
		assign[i] = i
		term[i] = clusterTerm(1, m.Alpha.Count())
	}
	workers = par.Workers(ell*ell, workers)
	merges := 0
	for {
		// Refresh the running sum and live count per sweep: Θ(ℓ), free
		// against the Θ(ℓ²) sweep, and keeps S exact across merges.
		g := 0
		s := 0.0
		for c := 0; c < ell; c++ {
			if members[c] > 0 {
				g++
				s += term[c]
			}
		}
		if g < 2 {
			break
		}
		gm1 := float64(g - 1)
		var best mergeCand
		if workers > 1 {
			// Stride slices, not contiguous rows: the sweep is triangular.
			cands := make([]mergeCand, workers)
			par.For(workers, workers, func(_, lo, hi int) {
				for wk := lo; wk < hi; wk++ {
					cands[wk] = clusterSweep(materials, members, term, s, gm1, wk, workers)
				}
			})
			best = cands[0]
			for _, c := range cands[1:] {
				if c.beats(best) {
					best = c
				}
			}
		} else {
			best = clusterSweep(materials, members, term, s, gm1, 0, 1)
		}
		if best.i < 0 || best.obj >= float64(g)*float64(g)*s {
			break
		}
		materials[best.i] |= materials[best.j]
		members[best.i] += members[best.j]
		members[best.j] = 0
		term[best.i] = clusterTerm(members[best.i], materials[best.i].Count())
		term[best.j] = 0
		for q := range assign {
			if assign[q] == best.j {
				assign[q] = best.i
			}
		}
		merges++
		if maxMerges > 0 && merges >= maxMerges {
			break
		}
	}
	return compact(materials, members, assign)
}

// greedyClusterNaive is the original full-recomputation search — Θ(ℓ) per
// candidate, Θ(ℓ⁴) end-to-end — retained verbatim as the test oracle the
// incremental and parallel sweeps are pinned bit-identical against.
func greedyClusterNaive(w *marginal.Workload, maxMerges int) *clustering {
	ell := len(w.Marginals)
	materials := make([]bits.Mask, ell)
	members := make([]int, ell)
	assign := make([]int, ell)
	for i, m := range w.Marginals {
		materials[i] = m.Alpha
		members[i] = 1
		assign[i] = i
	}
	merges := 0
	for {
		best := math.Inf(1)
		bi, bj := -1, -1
		for i := 0; i < ell; i++ {
			if members[i] == 0 {
				continue
			}
			for j := i + 1; j < ell; j++ {
				if members[j] == 0 {
					continue
				}
				g := 0
				inner := 0.0
				for c := 0; c < ell; c++ {
					if members[c] == 0 || c == j {
						continue
					}
					g++
					mu, n := materials[c], members[c]
					if c == i {
						mu |= materials[j]
						n += members[j]
					}
					inner += clusterTerm(n, mu.Count())
				}
				if obj := float64(g) * float64(g) * inner; obj < best {
					best, bi, bj = obj, i, j
				}
			}
		}
		current := clusterObjective(materials, members)
		if bi < 0 || best >= current {
			break
		}
		materials[bi] |= materials[bj]
		members[bi] += members[bj]
		members[bj] = 0
		for q := range assign {
			if assign[q] == bj {
				assign[q] = bi
			}
		}
		merges++
		if maxMerges > 0 && merges >= maxMerges {
			break
		}
	}
	return compact(materials, members, assign)
}

// compact renumbers the surviving clusters densely. The remap is a plain
// slice — cluster ids are array indices, and the planner is hot enough now
// to show up in profiles; no reason to pay map hashing here.
func compact(materials []bits.Mask, members []int, assign []int) *clustering {
	ell := len(materials)
	remap := make([]int, ell)
	var compactMat []bits.Mask
	var compactMem []int
	for c := 0; c < ell; c++ {
		if members[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = len(compactMat)
		compactMat = append(compactMat, materials[c])
		compactMem = append(compactMem, members[c])
	}
	for q := range assign {
		assign[q] = remap[assign[q]]
	}
	return &clustering{materials: compactMat, assign: assign, members: compactMem}
}

// Plan implements Strategy (serial incremental search; the engine reaches
// the parallel sweep through PlanParallel).
func (c Cluster) Plan(w *marginal.Workload) (*Plan, error) {
	return c.PlanParallel(w, nil, 1)
}

// PlanParallel implements ParallelPlanner: the greedy search's pair sweeps
// fan out across workers, bit-identical to the serial search at any count.
func (c Cluster) PlanParallel(w *marginal.Workload, a []float64, workers int) (*Plan, error) {
	if err := checkWeights(w, a); err != nil {
		return nil, err
	}
	if len(w.Marginals) == 0 {
		return nil, fmt.Errorf("strategy: cluster needs a non-empty workload")
	}
	return c.planFrom(w, greedyCluster(w, c.MaxMerges, workers), a)
}

// planFrom builds the plan for an already computed clustering; queryWeights
// (nil = all ones) sets the per-cluster importance mass.
func (c Cluster) planFrom(w *marginal.Workload, cl *clustering, queryWeights []float64) (*Plan, error) {
	// The strategy is the set of material marginals.
	matWorkload := marginal.MustWorkload(w.D, cl.materials)
	specs := make([]budget.Spec, len(cl.materials))
	mass := make([]float64, len(cl.materials))
	for qi, ci := range cl.assign {
		mass[ci] += weightAt(queryWeights, qi)
	}
	for ci := range cl.materials {
		specs[ci] = budget.Spec{
			Count:     1 << uint(cl.materials[ci].Count()),
			RowWeight: mass[ci],
			C:         1,
		}
	}
	matOffsets := matWorkload.Offsets()
	rm := func(qi int, z []float64, groupVar []float64) ([]float64, float64, error) {
		if len(z) != matWorkload.TotalCells() || len(groupVar) != len(cl.materials) {
			return nil, 0, fmt.Errorf("strategy: cluster recover got %d answers, %d variances", len(z), len(groupVar))
		}
		m := w.Marginals[qi]
		ci := cl.assign[qi]
		mu := cl.materials[ci]
		block := z[matOffsets[ci] : matOffsets[ci]+(1<<uint(mu.Count()))]
		out := make([]float64, m.Cells())
		mu.VisitSubsets(func(cell bits.Mask) {
			out[bits.CellIndex(m.Alpha, cell&m.Alpha)] += block[bits.CellIndex(mu, cell)]
		})
		return out, float64(int64(1)<<uint(mu.Count()-m.Order())) * groupVar[ci], nil
	}
	alphas := make([]bits.Mask, len(w.Marginals))
	for i, m := range w.Marginals {
		alphas[i] = m.Alpha
	}
	var weights []float64
	if queryWeights != nil {
		weights = append([]float64(nil), queryWeights...)
	}
	return &Plan{
		Strategy: "C",
		Specs:    specs,
		TrueAnswers: func(x *vector.Blocked, workers int) []float64 {
			if x.Len() != 1<<uint(w.D) {
				panic(fmt.Sprintf("strategy: cluster expects %d cells, got %d", 1<<uint(w.D), x.Len()))
			}
			return matWorkload.EvalWorkersVector(x, workers)
		},
		Recover:         recoverFromMarginals(w, rm),
		RecoverMarginal: rm,
		Persist: &PlanRecord{
			Strategy:  "C",
			MaxMerges: c.MaxMerges,
			D:         w.D,
			Alphas:    alphas,
			Weights:   weights,
			Materials: append([]bits.Mask(nil), cl.materials...),
			Assign:    append([]int(nil), cl.assign...),
		},
	}, nil
}

// Materials exposes the chosen material marginals (for tests and reporting).
func (c Cluster) Materials(w *marginal.Workload) []bits.Mask {
	return greedyCluster(w, c.MaxMerges, 0).materials
}

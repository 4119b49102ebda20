// Package datacube models the object in the paper's title: the lattice of
// all marginals (cuboids) of a relation, released privately and navigated
// with the usual OLAP operations.
//
// A cuboid is a marginal over a subset of the schema's attributes; the set
// of cuboids ordered by attribute-set inclusion forms the datacube lattice.
// Releasing the cuboids up to a chosen order through the paper's mechanism
// yields noisy tables that are *mutually consistent* — any roll-up of a
// released child cuboid reproduces its released ancestor exactly — which is
// what makes the released cube usable by downstream OLAP tooling.
package datacube

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// Cuboid identifies one lattice node by its attribute index set (sorted).
type Cuboid struct {
	Attrs []int
	Mask  bits.Mask
}

// Lattice is the datacube lattice over a schema, restricted to cuboids of
// at most MaxOrder attributes (the full lattice is exponential in the
// attribute count; low-order cubes are the practical release target, as in
// the paper's workloads).
type Lattice struct {
	Schema   *dataset.Schema
	MaxOrder int
	Cuboids  []Cuboid
	// index maps an attribute mask to its cuboid position. A release never
	// reads it, so it is built on the first Find.
	indexOnce sync.Once
	index     map[bits.Mask]int
}

// NewLattice enumerates the cuboids of order ≤ maxOrder in level order
// (apex first), each level in lexicographic attribute order. Every
// cuboid's Attrs is a capacity-limited window of one shared backing array.
func NewLattice(s *dataset.Schema, maxOrder int) (*Lattice, error) {
	if maxOrder < 0 || maxOrder > len(s.Attrs) {
		return nil, fmt.Errorf("datacube: max order %d out of range [0,%d]", maxOrder, len(s.Attrs))
	}
	n := len(s.Attrs)
	cuboids, attrs := 0, 0
	for k := 0; k <= maxOrder; k++ {
		c, _ := bits.BinomialInt(n, k) // n ≤ bits.MaxDim: no overflow
		cuboids += int(c)
		attrs += int(c) * k
	}
	l := &Lattice{Schema: s, MaxOrder: maxOrder, Cuboids: make([]Cuboid, 0, cuboids)}
	backing := make([]int, 0, attrs)
	idx := make([]int, maxOrder)
	for k := 0; k <= maxOrder; k++ {
		// idx[:k] walks the k-subsets of [0, n) in lexicographic order.
		for i := range k {
			idx[i] = i
		}
		for {
			lo := len(backing)
			backing = append(backing, idx[:k]...)
			c := backing[lo:len(backing):len(backing)]
			l.Cuboids = append(l.Cuboids, Cuboid{Attrs: c, Mask: s.MaskOf(c...)})
			i := k - 1
			for i >= 0 && idx[i] == n-k+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	return l, nil
}

// Workload returns the lattice's cuboids as a marginal workload.
func (l *Lattice) Workload() *marginal.Workload {
	alphas := make([]bits.Mask, len(l.Cuboids))
	for i, c := range l.Cuboids {
		alphas[i] = c.Mask
	}
	return marginal.MustWorkload(l.Schema.Dim(), alphas)
}

// Find returns the cuboid index for an attribute set, or -1.
func (l *Lattice) Find(attrs ...int) int {
	l.indexOnce.Do(func() {
		l.index = make(map[bits.Mask]int, len(l.Cuboids))
		for i, c := range l.Cuboids {
			l.index[c.Mask] = i
		}
	})
	sorted := append([]int(nil), attrs...)
	sort.Ints(sorted)
	mask := l.Schema.MaskOf(sorted...)
	if i, ok := l.index[mask]; ok {
		return i
	}
	return -1
}

// Parents returns the indices of the direct ancestors (one attribute
// removed) of cuboid i that exist in the lattice.
func (l *Lattice) Parents(i int) []int {
	c := l.Cuboids[i]
	var out []int
	for drop := range c.Attrs {
		rest := make([]int, 0, len(c.Attrs)-1)
		rest = append(rest, c.Attrs[:drop]...)
		rest = append(rest, c.Attrs[drop+1:]...)
		if p := l.Find(rest...); p >= 0 {
			out = append(out, p)
		}
	}
	return out
}

// Children returns the indices of the direct descendants (one attribute
// added) of cuboid i that exist in the lattice.
func (l *Lattice) Children(i int) []int {
	c := l.Cuboids[i]
	var out []int
	has := make(map[int]bool, len(c.Attrs))
	for _, a := range c.Attrs {
		has[a] = true
	}
	for a := range l.Schema.Attrs {
		if has[a] {
			continue
		}
		ext := append(append([]int(nil), c.Attrs...), a)
		if ch := l.Find(ext...); ch >= 0 {
			out = append(out, ch)
		}
	}
	return out
}

// Options configures a cube release.
type Options struct {
	Epsilon       float64
	Delta         float64
	UniformBudget bool
	Seed          int64
	// Strategy defaults to Fourier (the scalable choice for a cube of
	// overlapping cuboids); strategy.Workload reproduces the S = Q baseline.
	Strategy strategy.Strategy
	// Workers bounds the engine's worker pool (0 = all CPUs); the released
	// cube is bit-identical at every setting.
	Workers int
	// Shards bounds the measure stage's answer partitioning (see
	// engine.Options.Shards); bit-identical at every setting.
	Shards int
	// Cache optionally reuses the lattice workload's strategy plan across
	// repeated cube releases over the same schema.
	Cache *engine.PlanCache
}

// Released is a private datacube: noisy, mutually consistent cuboids.
type Released struct {
	Lattice *Lattice
	// Tables[i] is the cuboid's cell array, indexed like
	// bits.CellIndex(cuboid.Mask, ·).
	Tables [][]float64
	// CellVariance[i] is the pre-consistency per-cell noise variance.
	CellVariance []float64
	// TotalVariance is the analytic mechanism objective.
	TotalVariance float64
}

// Release privately materialises every cuboid of order ≤ maxOrder from the
// relation's contingency vector x. x is sharded (a dataset-store
// aggregate) or a zero-copy vector.FromDense view of a dense slice; the
// release is bit-identical over the same cells whatever the blocking, and
// cancellation of ctx aborts the staged engine mid-run.
func Release(ctx context.Context, s *dataset.Schema, x *vector.Blocked, maxOrder int, o Options) (*Released, error) {
	l, err := NewLattice(s, maxOrder)
	if err != nil {
		return nil, err
	}
	if x == nil || x.Len() != s.DomainSize() {
		got := 0
		if x != nil {
			got = x.Len()
		}
		return nil, fmt.Errorf("datacube: vector has %d entries, domain needs %d", got, s.DomainSize())
	}
	w := l.Workload()
	p := noise.Params{Type: noise.PureDP, Epsilon: o.Epsilon, Neighbor: noise.AddRemove}
	if o.Delta > 0 {
		p.Type, p.Delta = noise.ApproxDP, o.Delta
	}
	budgeting := engine.OptimalBudget
	if o.UniformBudget {
		budgeting = engine.UniformBudget
	}
	strat := o.Strategy
	if strat == nil {
		strat = strategy.Fourier{}
	}
	eng := engine.New(engine.Options{Workers: o.Workers, Shards: o.Shards, Cache: o.Cache})
	rel, err := eng.RunVector(ctx, w, x, engine.Config{
		Strategy:    strat,
		Budgeting:   budgeting,
		Consistency: engine.WeightedL2Consistency,
		Privacy:     p,
		Seed:        o.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &Released{
		Lattice:       l,
		Tables:        core.PerMarginal(w, rel.Answers),
		CellVariance:  rel.CellVariances,
		TotalVariance: rel.TotalVariance,
	}
	return out, nil
}

// Cuboid returns the released table for an attribute set.
func (r *Released) Cuboid(attrs ...int) ([]float64, error) {
	i := r.Lattice.Find(attrs...)
	if i < 0 {
		return nil, fmt.Errorf("datacube: cuboid over %v not in the released lattice", attrs)
	}
	return r.Tables[i], nil
}

// Total returns the (noisy) grand total — the apex cuboid. The order-0
// cuboid is always enumerated first by NewLattice, so the apex is read
// directly rather than through a lookup whose error path would silently
// report 0.
func (r *Released) Total() float64 {
	return r.Tables[0][0]
}

// RollUp aggregates a released cuboid down to a sub-attribute-set, the OLAP
// roll-up. For a consistent release this equals the released cuboid of the
// smaller set (asserted in tests).
func (r *Released) RollUp(from []int, to []int) ([]float64, error) {
	fi := r.Lattice.Find(from...)
	if fi < 0 {
		return nil, fmt.Errorf("datacube: cuboid over %v not released", from)
	}
	toSorted := append([]int(nil), to...)
	sort.Ints(toSorted)
	for _, a := range toSorted {
		found := false
		for _, b := range r.Lattice.Cuboids[fi].Attrs {
			if a == b {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("datacube: %v is not a subset of %v", to, from)
		}
	}
	fromMask := r.Lattice.Cuboids[fi].Mask
	toMask := r.Lattice.Schema.MaskOf(toSorted...)
	cells := r.Tables[fi]
	out := make([]float64, 1<<uint(toMask.Count()))
	fromMask.VisitSubsets(func(cell bits.Mask) {
		out[bits.CellIndex(toMask, cell&toMask)] += cells[bits.CellIndex(fromMask, cell)]
	})
	return out, nil
}

// Slice fixes one attribute of a cuboid to a value and returns the reduced
// table over the remaining attributes (the OLAP slice).
func (r *Released) Slice(attrs []int, fixAttr, fixValue int) ([]float64, []int, error) {
	fi := r.Lattice.Find(attrs...)
	if fi < 0 {
		return nil, nil, fmt.Errorf("datacube: cuboid over %v not released", attrs)
	}
	c := r.Lattice.Cuboids[fi]
	found := false
	for _, a := range c.Attrs {
		if a == fixAttr {
			found = true
			break
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("datacube: attribute %d not in cuboid %v", fixAttr, attrs)
	}
	s := r.Lattice.Schema
	if fixValue < 0 || fixValue >= s.Attrs[fixAttr].Cardinality {
		return nil, nil, fmt.Errorf("datacube: value %d out of range for attribute %d", fixValue, fixAttr)
	}
	rest := make([]int, 0, len(c.Attrs)-1)
	for _, a := range c.Attrs {
		if a != fixAttr {
			rest = append(rest, a)
		}
	}
	restMask := s.MaskOf(rest...)
	fixMask := s.AttrMask(fixAttr)
	fixBits := bits.Mask(fixValue) << uint(s.Offset(fixAttr))
	cells := r.Tables[fi]
	out := make([]float64, 1<<uint(restMask.Count()))
	c.Mask.VisitSubsets(func(cell bits.Mask) {
		if cell&fixMask != fixBits {
			return
		}
		out[bits.CellIndex(restMask, cell&restMask)] += cells[bits.CellIndex(c.Mask, cell)]
	})
	return out, rest, nil
}

// Dice restricts a cuboid to cells whose attribute values satisfy the
// given per-attribute predicates (nil predicate = keep all values); cells
// failing the predicate are zeroed. Returns a copy.
func (r *Released) Dice(attrs []int, keep map[int]func(value int) bool) ([]float64, error) {
	fi := r.Lattice.Find(attrs...)
	if fi < 0 {
		return nil, fmt.Errorf("datacube: cuboid over %v not released", attrs)
	}
	c := r.Lattice.Cuboids[fi]
	s := r.Lattice.Schema
	cells := r.Tables[fi]
	out := make([]float64, len(cells))
	c.Mask.VisitSubsets(func(cell bits.Mask) {
		idx := bits.CellIndex(c.Mask, cell)
		for _, a := range c.Attrs {
			pred, ok := keep[a]
			if !ok || pred == nil {
				continue
			}
			v := int(cell>>uint(s.Offset(a))) & ((1 << uint(s.Attrs[a].BitWidth())) - 1)
			if !pred(v) {
				return // leave zero
			}
		}
		out[idx] = cells[idx]
	})
	return out, nil
}

// ConsistencyError returns the maximum absolute disagreement between every
// released cuboid and the roll-up of each of its released children — zero
// (to numerical precision) for a consistent release.
func (r *Released) ConsistencyError() float64 {
	worst := 0.0
	for i := range r.Lattice.Cuboids {
		for _, ch := range r.Lattice.Children(i) {
			up, err := r.RollUp(r.Lattice.Cuboids[ch].Attrs, r.Lattice.Cuboids[i].Attrs)
			if err != nil {
				continue
			}
			for ci, v := range r.Tables[i] {
				if d := abs(v - up[ci]); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

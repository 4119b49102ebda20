// Package noise implements the random perturbation primitives of the paper:
// Laplace and Gaussian samplers, and the per-row non-uniform noise of
// Proposition 3.1 (Params.RowNoise), which with a single row budget is the
// classic Laplace mechanism (Theorem 2.1) or Gaussian mechanism
// (Theorem 2.2).
//
// All randomness flows through a seedable Source so experiments are
// reproducible; nothing in this package reads global state.
package noise

import (
	"fmt"
	"math"
	"math/rand"
)

// Source wraps a seeded PRNG. It is not safe for concurrent use; create one
// per goroutine (Split derives independent streams).
type Source struct {
	rng *rand.Rand
	sm  *splitMix64 // non-nil iff created by NewSubstream; enables Reseed
}

// NewSource returns a deterministic source for the given seed.
func NewSource(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Split derives a new Source whose stream is independent of (but fully
// determined by) the parent's current state.
func (s *Source) Split() *Source {
	return NewSource(s.rng.Int63())
}

// NewSubstream returns a Source whose stream is a pure function of
// (master, index): the same pair always yields the same draws, and streams
// with different indices are statistically independent. Unlike Split, no
// shared mutable state is consumed, so substreams can be created and used
// concurrently in any order — the primitive behind the engine's
// deterministic parallel measurement (one substream per strategy-group
// noise block).
func NewSubstream(master int64, index uint64) *Source {
	sm := &splitMix64{state: substreamState(master, index)}
	return &Source{rng: rand.New(sm), sm: sm}
}

// Reseed repositions a substream Source onto (master, index) without
// allocating: subsequent draws are bit-identical to those of a fresh
// NewSubstream(master, index). Sound because the Source's samplers keep no
// cached state between draws — everything flows from the splitmix64 state
// word. Panics on Sources not created by NewSubstream. This is the
// zero-alloc path for loops that consume one substream per noise block.
func (s *Source) Reseed(master int64, index uint64) {
	if s.sm == nil {
		panic("noise: Reseed on a Source not created by NewSubstream")
	}
	s.sm.state = substreamState(master, index)
}

// substreamState mixes the master seed and substream index through two
// rounds of the splitmix64 finalizer so that adjacent seeds or indices land
// on unrelated states.
func substreamState(master int64, index uint64) uint64 {
	z := uint64(master) ^ 0x9E3779B97F4A7C15*(index+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// splitMix64 is an O(1)-seedable rand.Source64. The stock rand.NewSource
// pays a ~600-step warm-up per seeding, which dominates when a release
// derives one substream per strategy group; splitmix64 seeds in constant
// time and passes BigCrush.
type splitMix64 struct{ state uint64 }

func (s *splitMix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitMix64) Seed(seed int64) { s.state = substreamState(seed, 0) }

// Shuffle pseudo-randomizes the order of n elements through swap, consuming
// the Source's stream exactly as rand.Shuffle would. It is the sanctioned
// plan-time shuffle: pipeline packages must not reach for math/rand directly
// (the seedflow invariant), and a Source seeded by NewSource reproduces the
// stream of rand.New(rand.NewSource(seed)) bit-for-bit, so migrating a
// direct math/rand call here never changes released values.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Laplace draws from the zero-mean Laplace distribution with scale b
// (variance 2b²), via inverse-CDF sampling.
func (s *Source) Laplace(b float64) float64 {
	if b < 0 {
		panic("noise: negative Laplace scale")
	}
	if b == 0 {
		return 0
	}
	// u uniform in (-1/2, 1/2]; inverse CDF −b·sgn(u)·ln(1−2|u|).
	u := s.rng.Float64() - 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u+1e-300)
	}
	return b * math.Log(1+2*u+1e-300)
}

// Gaussian draws from N(0, sigma²).
func (s *Source) Gaussian(sigma float64) float64 {
	if sigma < 0 {
		panic("noise: negative Gaussian sigma")
	}
	return s.rng.NormFloat64() * sigma
}

// NeighborModel selects the definition of neighbouring databases that the
// sensitivity calculation uses.
type NeighborModel int

const (
	// AddRemove: neighbours differ by the presence of one tuple; one entry
	// of x changes by 1, so Δp = max_j ‖S_·j‖p. This matches the worked
	// example in Section 1 and the experimental study.
	AddRemove NeighborModel = iota
	// Modify: neighbours differ by one tuple's value; weight 1 moves
	// between two entries of x, doubling the bound (the factor 2 of
	// Proposition 3.1).
	Modify
)

// Factor returns the sensitivity multiplier κ of the model.
func (m NeighborModel) Factor() float64 {
	if m == Modify {
		return 2
	}
	return 1
}

func (m NeighborModel) String() string {
	if m == Modify {
		return "modify"
	}
	return "add-remove"
}

// PrivacyType selects the target guarantee.
type PrivacyType int

const (
	// PureDP is ε-differential privacy via Laplace noise.
	PureDP PrivacyType = iota
	// ApproxDP is (ε,δ)-differential privacy via Gaussian noise.
	ApproxDP
)

func (p PrivacyType) String() string {
	if p == ApproxDP {
		return "(ε,δ)-DP"
	}
	return "ε-DP"
}

// Params carries a complete privacy target.
type Params struct {
	Type     PrivacyType
	Epsilon  float64
	Delta    float64 // only for ApproxDP
	Neighbor NeighborModel
}

// Validate reports whether the parameters make sense.
func (p Params) Validate() error {
	// Written so NaN fails; +Inf would calibrate zero noise.
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 1) {
		return fmt.Errorf("noise: epsilon must be positive and finite, got %v", p.Epsilon)
	}
	if p.Type == ApproxDP && !(p.Delta > 0 && p.Delta < 1) {
		return fmt.Errorf("noise: delta must be in (0,1), got %v", p.Delta)
	}
	return nil
}

// EffectiveEpsilon returns ε/κ, the budget available to the per-row
// constraint Σ_i |S_ij| ε_i ≤ ε/κ (L1) or √(Σ_i S_ij² ε_i²) ≤ ε/κ (L2).
func (p Params) EffectiveEpsilon() float64 {
	return p.Epsilon / p.Neighbor.Factor()
}

// RowVariance is the noise variance Proposition 3.1 assigns to a strategy
// row with per-row budget εi: Laplace 2/εi², Gaussian 2·ln(2/δ)/εi².
func (p Params) RowVariance(epsI float64) float64 {
	if epsI <= 0 {
		return math.Inf(1)
	}
	switch p.Type {
	case ApproxDP:
		return 2 * math.Log(2/p.Delta) / (epsI * epsI)
	default:
		return 2 / (epsI * epsI)
	}
}

// RowNoise draws one noise value for a strategy row with budget εi.
func (p Params) RowNoise(s *Source, epsI float64) float64 {
	if epsI <= 0 {
		panic("noise: non-positive row budget")
	}
	switch p.Type {
	case ApproxDP:
		return s.Gaussian(math.Sqrt(2*math.Log(2/p.Delta)) / epsI)
	default:
		return s.Laplace(1 / epsI)
	}
}

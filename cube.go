package repro

import (
	"context"

	"repro/internal/datacube"
	"repro/internal/synth"
	"repro/internal/vector"
)

// CubeRelease is a private datacube: noisy, mutually consistent cuboids
// navigable with the OLAP operations Cuboid, RollUp, Slice and Dice.
type CubeRelease = datacube.Released

// CubeLattice is the cuboid lattice of a released datacube.
type CubeLattice = datacube.Lattice

// ReleaseCube privately materialises every cuboid (marginal) of the table
// with at most maxOrder attributes. The released cuboids are mutually
// consistent: rolling a child cuboid up always reproduces its released
// ancestor exactly, so the cube behaves like a real OLAP cube downstream.
func ReleaseCube(t *Table, maxOrder int, o Options) (*CubeRelease, error) {
	if err := validatePrivacy(o.Epsilon, o.Delta); err != nil {
		return nil, err
	}
	x, err := t.Vector()
	if err != nil {
		return nil, err
	}
	return ReleaseCubeBlockedContext(context.Background(), t.Schema, vector.FromDense(x), maxOrder, o)
}

// ReleaseCubeBlockedContext is ReleaseCube for callers who already hold the
// aggregated contingency vector — the upload-once path of the dataset
// store, whose sharded aggregate feeds the mechanism without ever being
// gathered into one dense slice — under a context whose cancellation aborts
// the release engine mid-run. Bit-identical to ReleaseCube over the same
// cells and seed.
func ReleaseCubeBlockedContext(ctx context.Context, schema *Schema, counts *BlockedVector, maxOrder int, o Options) (*CubeRelease, error) {
	if err := validatePrivacy(o.Epsilon, o.Delta); err != nil {
		return nil, err
	}
	return datacube.Release(ctx, schema, counts, maxOrder, o.cubeOptions())
}

// cubeOptions maps the flat Options onto the datacube layer's options.
func (o Options) cubeOptions() datacube.Options {
	return datacube.Options{
		Epsilon:       o.Epsilon,
		Delta:         o.Delta,
		UniformBudget: o.UniformBudget,
		Seed:          o.Seed,
		Strategy:      o.Strategy.impl(),
		Workers:       o.Workers,
		Shards:        o.Shards,
		Cache:         o.Cache,
	}
}

// SyntheticData converts a consistent release into row-level synthetic
// microdata: the release's Fourier coefficients are materialised as an
// estimated contingency vector, clamped and rounded to non-negative integer
// counts (the post-processing of the paper's concluding remarks), and
// sampled back into tuples under the schema. Post-processing adds no
// privacy cost.
//
// The release must have been produced with consistency enabled (the
// default); SkipConsistency releases carry no coefficients to materialise.
func SyntheticData(s *Schema, w *Workload, res *Result, seed int64) (*Table, error) {
	rel, err := ReleaseVectorCoefficients(s, w, res)
	if err != nil {
		return nil, err
	}
	counts := synth.RoundToCounts(rel)
	tab, _ := synth.SampleTuples(s, counts, seed)
	return tab, nil
}

// ReleaseVectorCoefficients reconstructs the estimated contingency vector
// from a released workload by re-running the (deterministic) consistency
// projection on the released answers and inverting the Fourier transform.
func ReleaseVectorCoefficients(s *Schema, w *Workload, res *Result) ([]float64, error) {
	coeffRes, err := consistencyOf(w, res)
	if err != nil {
		return nil, err
	}
	return synth.MaterializeVector(s.Dim(), w.FourierSupport(), coeffRes)
}

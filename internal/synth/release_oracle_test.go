package synth_test

import (
	"context"
	"slices"
	"testing"

	"repro"
	"repro/internal/synth"
)

// checkReleases rounds the materialised vector of each seeded release and
// holds RoundToCounts to the sort-based reference. Released vectors carry
// continuous noise, so a tie across the cut should never occur; one would
// be reported rather than compared.
func checkReleases(t *testing.T, tab *repro.Table, kind repro.StrategyKind, seeds []int64) {
	t.Helper()
	w := repro.AllKWayMarginals(tab.Schema, 2)
	r, err := repro.NewReleaser(tab.Schema, w, repro.WithStrategy(kind))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		res, err := r.Release(context.Background(), tab, repro.ReleaseSpec{Epsilon: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		x, err := repro.ReleaseVectorCoefficients(tab.Schema, w, res)
		if err != nil {
			t.Fatal(err)
		}
		if synth.TieStraddlesCut(x) {
			t.Fatalf("%v seed %d: a tie straddles the cut", kind, seed)
		}
		if got, want := synth.RoundToCounts(x), synth.RoundToCountsReference(x); !slices.Equal(got, want) {
			t.Fatalf("%v seed %d: RoundToCounts differs from the reference", kind, seed)
		}
	}
}

func seedRange(lo, hi int64) []int64 {
	var s []int64
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}

// TestRoundToCountsNLTCSReleases: 200 Fourier and 20 cluster releases of
// NLTCS Q2 at ε = 1 round exactly as the sort-based apportionment did.
// The comparison is serial code, so -race runs a tenth of the seeds.
func TestRoundToCountsNLTCSReleases(t *testing.T) {
	n := int64(200)
	if synth.RaceEnabled() {
		n = 20
	}
	tab := repro.SyntheticNLTCS(1, 21574)
	checkReleases(t, tab, repro.StrategyFourier, seedRange(1, n))
	checkReleases(t, tab, repro.StrategyCluster, seedRange(1, n/10))
}

// TestRoundToCountsAdultReleases: the same on Adult's 2^23-cell domain.
func TestRoundToCountsAdultReleases(t *testing.T) {
	if testing.Short() || synth.RaceEnabled() {
		t.Skip("each Adult release sorts a 2^23-cell vector for the reference")
	}
	checkReleases(t, repro.SyntheticAdult(2, 32561), repro.StrategyFourier, seedRange(1, 3))
}

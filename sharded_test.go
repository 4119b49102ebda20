package repro

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/vector"
)

// TestReleaseBlockedBitIdentical: the blocked public entry point,
// ReleaseBlocked, reproduces the table path, Release, bit for bit at every
// worker count and input blocking.
func TestReleaseBlockedBitIdentical(t *testing.T) {
	tab := SyntheticNLTCS(5, 3000)
	schema := tab.Schema
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	w := AllKWayMarginals(schema, 2)
	spec := ReleaseSpec{Epsilon: 1, Seed: 13}

	base, err := NewReleaser(schema, w)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := base.Release(context.Background(), tab, spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3} {
		r, err := NewReleaser(schema, w, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, blocks := range []int{1, 4, 16} {
			xv := vector.New(len(x), blocks)
			xv.Scatter(x)
			got, err := r.ReleaseBlocked(context.Background(), xv, spec)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("workers=%d blocks=%d", workers, blocks)
			for i := range ref.Answers {
				if math.Float64bits(got.Answers[i]) != math.Float64bits(ref.Answers[i]) {
					t.Fatalf("%s: answer %d differs", what, i)
				}
			}
		}
	}
}

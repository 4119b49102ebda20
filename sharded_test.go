package repro

import (
	"context"
	"math"
	"testing"
)

// TestReleaseBlockedBitIdentical: the sharded public entry points
// (ReleaseBlocked, WithShards, ReleaseSpec.Shards) reproduce the table
// path, Release, bit for bit.
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

	for _, shards := range []int{1, 3, 8} {
		r, err := NewReleaser(schema, w, WithShards(shards), WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReleaseBlocked(context.Background(), NewBlockedVector(x), spec)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range ref.Answers {
			if math.Float64bits(got.Answers[i]) != math.Float64bits(ref.Answers[i]) {
				t.Fatalf("shards=%d: answer %d differs", shards, i)
			}
		}
	}

	// Per-call override through the spec.
	specShards := spec
	specShards.Shards = 5
	got, err := base.Release(context.Background(), tab, specShards)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Answers {
		if math.Float64bits(got.Answers[i]) != math.Float64bits(ref.Answers[i]) {
			t.Fatalf("spec.Shards: answer %d differs", i)
		}
	}

	if _, err := NewReleaser(schema, w, WithShards(-1)); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

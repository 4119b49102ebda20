package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vector"
)

// sparseCase is one count vector of the representation-independence
// matrix: the same counts are released from the store's sparse form and
// from a dense vector, and every released bit must agree.
type sparseCase struct {
	name   string
	schema *Schema
	counts []float64
	k      int // workload order
}

// paddedSchema draws attributes of 1–3 bits, most with a cardinality that
// is not a power of two, until they encode to exactly d bits.
func paddedSchema(t testing.TB, rng *rand.Rand, d int) *Schema {
	t.Helper()
	var attrs []Attribute
	for bits := 0; bits < d; {
		w := min(1+rng.Intn(3), d-bits)
		card := 1<<uint(w-1) + 1 + rng.Intn(1<<uint(w-1))
		if w == 1 {
			card = 2
		}
		attrs = append(attrs, Attribute{Name: fmt.Sprintf("a%d", len(attrs)), Cardinality: card})
		bits += w
	}
	s, err := NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != d {
		t.Fatalf("schema encodes to %d bits, want %d", s.Dim(), d)
	}
	return s
}

// sparseCounts places nnz non-zero counts on distinct valid cells.
func sparseCounts(t testing.TB, rng *rand.Rand, s *Schema, nnz int) []float64 {
	t.Helper()
	x := make([]float64, s.DomainSize())
	tuple := make([]int, len(s.Attrs))
	for placed := 0; placed < nnz; {
		for i, a := range s.Attrs {
			tuple[i] = rng.Intn(a.Cardinality)
		}
		cell, err := s.Encode(tuple)
		if err != nil {
			t.Fatal(err)
		}
		if x[cell] == 0 {
			x[cell] = float64(1 + rng.Intn(40))
			placed++
		}
	}
	return x
}

func sparseCases(t testing.TB) []sparseCase {
	rng := rand.New(rand.NewSource(23))
	var out []sparseCase
	// d 1–23; from d = 17 the order-2 marginals reach α bits at and above
	// 16, the kernel's piece boundary.
	for _, d := range []int{1, 2, 3, 5, 8, 11, 14, 16, 17, 19, 21, 23} {
		s := paddedSchema(t, rng, d)
		valid := 1
		for _, a := range s.Attrs {
			valid *= a.Cardinality
		}
		// Below 16 cells only the empty vector is sparse.
		nnz := 0
		if most := min(valid, s.DomainSize()/vector.SparseRatio); most > 0 {
			nnz = 1 + rng.Intn(most)
		}
		k := 2
		if d <= 2 || d >= 21 {
			k = 1
		}
		out = append(out, sparseCase{fmt.Sprintf("d%d", d), s, sparseCounts(t, rng, s, nnz), k})
	}
	s := paddedSchema(t, rng, 12)
	out = append(out,
		sparseCase{"empty", s, make([]float64, s.DomainSize()), 2},
		sparseCase{"one-nonzero", s, sparseCounts(t, rng, s, 1), 2})
	return out
}

// sameResult fails unless two releases agree bit for bit.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("%s: %d answers, want %d", what, len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if math.Float64bits(got.Answers[i]) != math.Float64bits(want.Answers[i]) {
			t.Fatalf("%s: answer %d = %v from the sparse store, %v from dense counts", what, i, got.Answers[i], want.Answers[i])
		}
	}
	if math.Float64bits(got.TotalVariance) != math.Float64bits(want.TotalVariance) {
		t.Fatalf("%s: total variance differs", what)
	}
}

// putSparse registers counts in a fresh store and checks the store holds
// them sparse.
func putSparse(t *testing.T, s *Schema, counts []float64) *DatasetHandle {
	t.Helper()
	st, err := OpenDatasetStore("")
	if err != nil {
		t.Fatal(err)
	}
	info, err := st.PutCounts("d", s, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.StoredCells*vector.SparseRatio > info.Cells {
		t.Fatalf("store holds %d of %d cells: not sparse", info.StoredCells, info.Cells)
	}
	h, err := st.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestSparseStoreReleasesLikeDense: for random sparse count vectors over
// padded schemas, every strategy under both budgetings, at workers {1, 2}
// and shards {1, auto, 3}, and the datacube release give the same bits
// from the store's sparse form as from the same counts held dense.
func TestSparseStoreReleasesLikeDense(t *testing.T) {
	ctx := context.Background()
	kinds := []StrategyKind{StrategyFourier, StrategyWorkload, StrategyCluster, StrategyIdentity}
	for _, tc := range sparseCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			h := putSparse(t, tc.schema, tc.counts)
			dense := NewBlockedVector(tc.counts)
			w := AllKWayMarginals(tc.schema, tc.k)
			big, huge := tc.schema.Dim() > 16, tc.schema.Dim() >= 20
			for _, kind := range kinds {
				for _, uniform := range []bool{false, true} {
					opts := []ReleaserOption{WithStrategy(kind), WithBudgetCap(1e9, 0.5)}
					if uniform {
						opts = append(opts, WithUniformBudget())
					}
					r, err := NewReleaser(tc.schema, w, opts...)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2} {
						for _, shards := range []int{1, 0, 3} {
							// Identity draws a noise value per cell and every
							// dense release walks the whole domain: a thinner
							// matrix keeps the 2^17+ cases quick.
							if big && kind == StrategyIdentity && (huge || workers != 1 || shards == 0 || uniform) ||
								huge && (uniform || shards == 0) {
								continue
							}
							spec := ReleaseSpec{Epsilon: 1, Seed: 5, Workers: workers, Shards: shards}
							got, err := r.ReleaseDataset(ctx, h, spec)
							if err != nil {
								t.Fatal(err)
							}
							want, err := r.ReleaseBlocked(ctx, dense, spec)
							if err != nil {
								t.Fatal(err)
							}
							sameResult(t, fmt.Sprintf("%v uniform=%v workers=%d shards=%d", kind, uniform, workers, shards), got, want)
						}
					}
				}
			}
			if big {
				return
			}
			for _, kind := range kinds {
				o := Options{Epsilon: 1, Seed: 9, Strategy: kind, Shards: 3, Workers: 2}
				order := min(2, len(tc.schema.Attrs))
				got, err := ReleaseCubeBlockedContext(ctx, tc.schema, h.Vector(), order, o)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ReleaseCubeBlockedContext(ctx, tc.schema, dense, order, o)
				if err != nil {
					t.Fatal(err)
				}
				for i, tab := range want.Tables {
					for j, v := range tab {
						if math.Float64bits(got.Tables[i][j]) != math.Float64bits(v) {
							t.Fatalf("cube %v: cuboid %d cell %d differs", kind, i, j)
						}
					}
				}
			}
		})
	}
}

// TestSparseThresholdAndAppendCrossing: nnz = cells/16 − 1 and cells/16
// are held sparse, cells/16 + 1 dense, and an append that pushes a sparse
// dataset past the crossover installs it dense — releasing, before and
// after, exactly what its counts give held dense.
func TestSparseThresholdAndAppendCrossing(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	s := paddedSchema(t, rng, 10)
	for len(s.Attrs) < 2 {
		s = paddedSchema(t, rng, 10)
	}
	n := s.DomainSize()
	st, err := OpenDatasetStore("")
	if err != nil {
		t.Fatal(err)
	}
	var attrs []string
	for _, a := range s.Attrs {
		attrs = append(attrs, fmt.Sprintf(`{"name":%q,"cardinality":%d}`, a.Name, a.Cardinality))
	}
	header := `{"schema":[` + strings.Join(attrs, ",") + `]}` + "\n"
	// rowsFor writes one row per count unit of every cell in cells.
	rowsFor := func(x []float64, cells []int) string {
		var b strings.Builder
		for _, c := range cells {
			for r := 0; r < int(x[c]); r++ {
				fmt.Fprint(&b, strings.ReplaceAll(fmt.Sprint(s.Decode(c)), " ", ","), "\n")
			}
		}
		return b.String()
	}
	valid := 1
	for _, a := range s.Attrs {
		valid *= a.Cardinality
	}
	if valid < n/vector.SparseRatio+2 {
		t.Fatalf("schema has %d valid cells, too few for the crossover", valid)
	}
	w := AllKWayMarginals(s, 2)
	r, err := NewReleaser(s, w, WithBudgetCap(1e9, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	check := func(id string, x []float64, wantStored int) {
		t.Helper()
		info, err := st.Describe(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.StoredCells != wantStored {
			t.Fatalf("%s: store holds %d cells, want %d", id, info.StoredCells, wantStored)
		}
		h, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		spec := ReleaseSpec{Epsilon: 1, Seed: 3}
		got, err := r.ReleaseDataset(ctx, h, spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.ReleaseBlocked(ctx, NewBlockedVector(x), spec)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, id, got, want)
	}
	for _, delta := range []int{-1, 0, 1} {
		nnz := n/vector.SparseRatio + delta
		x := sparseCounts(t, rng, s, nnz)
		var cells []int
		for c, v := range x {
			if v != 0 {
				cells = append(cells, c)
			}
		}
		id := fmt.Sprintf("nnz%d", n/vector.SparseRatio+delta)
		if _, err := st.IngestNDJSON(ctx, id, strings.NewReader(header+rowsFor(x, cells)), IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		want := nnz
		if delta > 0 {
			want = n
		}
		check(id, x, want)
		if delta != 0 {
			continue
		}
		// Append one row on a new cell: nnz passes cells/16 and the
		// dataset crosses to dense.
		more := append([]float64(nil), x...)
		added := -1
		for c := range more {
			if _, err := s.Encode(s.Decode(c)); err == nil && more[c] == 0 {
				more[c], added = 1, c
				break
			}
		}
		if _, err := st.AppendNDJSON(ctx, id, strings.NewReader(header+rowsFor(more, []int{added})), IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		check(id, more, n)
	}
}

// allocatedBytes returns the bytes the heap handed out while fn ran.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAdultFootprint: Adult (2^23 cells, 0.25% non-zero) is held in under
// 1 MiB, and neither its ingest nor its first Fourier Q2 release allocates
// a 2^23-cell array (64 MiB of float64 or int64).
func TestAdultFootprint(t *testing.T) {
	const domainArray = 8 << 23
	tab := SyntheticAdult(2, 32561)
	var b strings.Builder
	b.WriteString(`{"schema":[`)
	for i, a := range tab.Schema.Attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":%q,"cardinality":%d}`, a.Name, a.Cardinality)
	}
	b.WriteString("]}\n")
	for _, r := range tab.Rows {
		b.WriteString(strings.ReplaceAll(fmt.Sprint(r), " ", ","))
		b.WriteByte('\n')
	}
	body := b.String()
	ctx := context.Background()
	st, err := OpenDatasetStore("")
	if err != nil {
		t.Fatal(err)
	}
	var info DatasetInfo
	ingest := allocatedBytes(func() {
		if info, err = IngestDataset(ctx, st, "adult", strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if info.ResidentBytes >= 1<<20 || info.Cells != 1<<23 {
		t.Fatalf("Adult held in %d bytes (%d of %d cells), want under 1 MiB", info.ResidentBytes, info.StoredCells, info.Cells)
	}
	h, err := st.Get("adult")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	r, err := NewReleaser(tab.Schema, AllKWayMarginals(tab.Schema, 2), WithBudgetCap(1e9, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	release := allocatedBytes(func() {
		if _, err := r.ReleaseDataset(ctx, h, ReleaseSpec{Epsilon: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Adult: %d non-zeros in %d resident bytes; ingest allocated %d bytes, first Fourier Q2 release %d", info.StoredCells, info.ResidentBytes, ingest, release)
	if ingest >= domainArray/4 || release >= domainArray/4 {
		t.Fatalf("ingest allocated %d bytes, first release %d: a 2^23-cell array is %d", ingest, release, domainArray)
	}
}

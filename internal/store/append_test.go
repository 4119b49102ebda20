package store

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vector"
)

// TestAppendSumsAggregates: mode=append delta ingestion sums the new
// stream's counts into the resident aggregate — equal to one combined
// upload, cell for cell, bit for bit.
func TestAppendSumsAggregates(t *testing.T) {
	ctx := context.Background()
	first, second := testRows(500), testRows(900)[500:]

	s := memStore(t)
	if _, err := s.IngestNDJSON(ctx, "d", strings.NewReader(ndjsonBody(first)), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	info, err := s.AppendNDJSON(ctx, "d", strings.NewReader(ndjsonBody(second)), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 900 {
		t.Fatalf("appended dataset reports %d rows, want 900", info.Rows)
	}

	combined := memStore(t)
	if _, err := combined.IngestNDJSON(ctx, "d", strings.NewReader(ndjsonBody(testRows(900))), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	ha, _ := s.Get("d")
	defer ha.Close()
	hb, _ := combined.Get("d")
	defer hb.Close()
	got, want := DenseCounts(ha), DenseCounts(hb)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("cell %d: appended %v, combined upload %v", i, got[i], want[i])
		}
	}
}

// TestAppendTransactional: schema mismatches, malformed streams and missing
// datasets leave the resident aggregate untouched.
func TestAppendTransactional(t *testing.T) {
	ctx := context.Background()
	s := memStore(t)
	rows := testRows(100)
	if _, err := s.IngestNDJSON(ctx, "d", strings.NewReader(ndjsonBody(rows)), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	h, _ := s.Get("d")
	before := DenseCounts(h)
	h.Close()

	// Missing dataset.
	if _, err := s.AppendNDJSON(ctx, "nope", strings.NewReader(ndjsonBody(rows)), IngestOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append to missing dataset: %v", err)
	}
	// Mismatched schema.
	other := `{"schema":[{"name":"color","cardinality":3},{"name":"size","cardinality":2},{"name":"grade","cardinality":5}]}` + "\n[0,0,0]\n"
	if _, err := s.AppendNDJSON(ctx, "d", strings.NewReader(other), IngestOptions{}); !errors.Is(err, ErrInvalidDataset) {
		t.Fatalf("append with mismatched schema: %v", err)
	}
	// Malformed row mid-stream.
	bad := testHeader + "\n[0,0,0]\n[9,9]\n"
	if _, err := s.AppendNDJSON(ctx, "d", strings.NewReader(bad), IngestOptions{}); !errors.Is(err, ErrInvalidDataset) {
		t.Fatalf("append with malformed row: %v", err)
	}

	h, _ = s.Get("d")
	defer h.Close()
	after := DenseCounts(h)
	info, _ := s.Describe("d")
	if info.Rows != 100 {
		t.Fatalf("failed appends changed the row count to %d", info.Rows)
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("failed appends changed cell %d", i)
		}
	}
}

// TestAppendHandlesSurviveAndConcurrency: handles over the pre-append
// version keep their counts; concurrent appends all land (optimistic
// retry), summing like a single combined stream.
func TestAppendHandlesSurviveAndConcurrency(t *testing.T) {
	ctx := context.Background()
	s := memStore(t)
	base := testRows(50)
	if _, err := s.IngestNDJSON(ctx, "d", strings.NewReader(ndjsonBody(base)), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	old, _ := s.Get("d")
	defer old.Close()
	oldCounts := append([]float64(nil), DenseCounts(old)...)

	const appends = 8
	var wg sync.WaitGroup
	errs := make([]error, appends)
	for i := 0; i < appends; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.AppendNDJSON(ctx, "d", strings.NewReader(testHeader+"\n[1,1,1]\n"), IngestOptions{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// The pinned handle still reads the pre-append aggregate.
	for i, v := range DenseCounts(old) {
		if v != oldCounts[i] {
			t.Fatalf("pinned handle changed at cell %d", i)
		}
	}
	// The resident aggregate gained exactly `appends` tuples of [1,1,1].
	schema := testSchema(t)
	idx, err := schema.Encode([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := s.Get("d")
	defer h.Close()
	if got, want := DenseCounts(h)[idx], oldCounts[idx]+appends; got != want {
		t.Fatalf("cell [1,1,1] = %v, want %v", got, want)
	}
	if info, _ := s.Describe("d"); info.Rows != int64(len(base)+appends) {
		t.Fatalf("rows = %d, want %d", info.Rows, len(base)+appends)
	}
}

// TestAppendPersistsSnapshot: an append rewrites the snapshot, so a restart
// serves the merged aggregate.
func TestAppendPersistsSnapshot(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.IngestNDJSON(ctx, "d", strings.NewReader(ndjsonBody(testRows(40))), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AppendNDJSON(ctx, "d", strings.NewReader(testHeader+"\n[2,1,3]\n[2,1,3]\n"), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	h1, _ := s1.Get("d")
	want := DenseCounts(h1)
	h1.Close()

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s2.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	got := DenseCounts(h2)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("restarted store differs at cell %d", i)
		}
	}
	if info, _ := s2.Describe("d"); info.Rows != 42 {
		t.Fatalf("restarted rows = %d, want 42", info.Rows)
	}
}

// appendFixture is a dense NLTCS dataset (2^16 cells, about 11,600 of
// them non-zero) and a 1,000-row NDJSON batch to append to it.
func appendFixture(t testing.TB) (*Store, string) {
	t.Helper()
	s := memStore(t)
	if _, err := s.IngestNDJSON(context.Background(), "nltcs", strings.NewReader(tableBody(dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount))), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Describe("nltcs"); info.StoredCells != info.Cells {
		t.Fatalf("NLTCS held sparse: %+v", info)
	}
	return s, tableBody(dataset.SyntheticNLTCS(2, 1000))
}

// TestAppendAllocsBounded: a 1,000-row append onto a dense 2^16-cell
// dataset allocates at most 768 KiB: the 512 KiB copy of the resident
// counts, the 64 KiB reader and the batch's own cells. The line limit is
// not allocated up front.
func TestAppendAllocsBounded(t *testing.T) {
	s, batch := appendFixture(t)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := s.AppendNDJSON(context.Background(), "nltcs", strings.NewReader(batch), IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 768<<10 {
		t.Fatalf("an append allocates %d KiB, want at most 768 KiB", per>>10)
	}
}

// BenchmarkAppendNDJSON appends a 1,000-row batch to a dense 2^16-cell
// dataset: ingest of the batch, the sum, the form decision and the seal.
func BenchmarkAppendNDJSON(b *testing.B) {
	s, batch := appendFixture(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for range b.N {
		if _, err := s.AppendNDJSON(context.Background(), "nltcs", strings.NewReader(batch), IngestOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendFormMatchesHoldAs is the oracle for the O(Δ) density
// decision: on random resident/delta pairs, appendForm holds the sum in
// exactly the form, and with exactly the cells, that holdAs's full walk
// picks. Residents sit on both sides of the cells/16 crossover and are put
// with −0, fractional and negative cells, which keep them dense; half the
// deltas cancel every such cell, so a dense resident's sum may go sparse,
// which an over-counted non-zero total would miss. Some residents carry
// totals at 2^53, and deltas come sparse and dense.
func TestAppendFormMatchesHoldAs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := memStore(t)
	forms := map[[2]bool]int{}
	for trial := range 600 {
		d := 12
		if trial%8 == 0 {
			d = 17 // more than one block
		}
		sc := dataset.MustSchema([]dataset.Attribute{{Name: "a", Cardinality: 1 << (d - 6)}, {Name: "b", Cardinality: 64}})
		n := sc.DomainSize()
		x := make([]float64, n)
		for range n/16 - 12 + rng.Intn(16) {
			x[rng.Intn(n)] = float64(1 + rng.Intn(5))
		}
		odd := []float64{math.Copysign(0, -1), -3, -1, 0.5}
		for range rng.Intn(6) {
			x[rng.Intn(n)] = odd[rng.Intn(len(odd)-trial%2)]
		}
		if trial%16 == 1 {
			x[rng.Intn(n)] = 1<<53 - 2
		}
		if _, err := s.PutCounts("r", sc, x, 1); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		old := s.datasets["r"]
		s.mu.Unlock()

		acc := newAccumulator(n)
		for range rng.Intn(24) {
			acc.add(rng.Intn(n))
		}
		if trial%2 == 1 {
			// Cancel every negative cell and lift every −0 cell.
			for c, v := range x {
				if math.Signbit(v) {
					for range max(1, int(-v)) {
						acc.add(c)
					}
				}
			}
		}
		if trial%5 == 0 {
			acc.densify()
		}
		delta := acc.vector()
		merged, err := vector.Sum(old.counts, delta)
		if err != nil {
			t.Fatal(err)
		}
		want := holdAs(merged)
		got := appendForm(old, delta, merged)
		_, _, ms := vector.Sparse(merged)
		_, _, ws := vector.Sparse(want)
		forms[[2]bool{ms, ws}]++
		if !sameCounts(got, want) {
			_, _, gs := vector.Sparse(got)
			t.Fatalf("trial %d: appendForm held sparse=%v, holdAs sparse=%v (or cells differ)", trial, gs, ws)
		}
	}
	// Every transition must have been exercised, dense sums going sparse
	// above all.
	for _, f := range [][2]bool{{false, false}, {false, true}, {true, true}, {true, false}} {
		if forms[f] == 0 {
			t.Fatalf("no trial summed to sparse=%v and was held sparse=%v: %v", f[0], f[1], forms)
		}
	}
}

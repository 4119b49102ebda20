package store

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/marginal"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// fingerprintDataset is fingerprintCount's hash alone.
func fingerprintDataset(sc *dataset.Schema, counts *vector.Blocked) uint64 {
	fp, _ := fingerprintCount(sc, counts)
	return fp
}

// fingerprintOracle is the dense loop fingerprintDataset replaced: hash/fnv
// over every cell's big-endian bits, zero cells included.
func fingerprintOracle(sc *dataset.Schema, counts *vector.Blocked) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeInt(uint64(len(sc.Attrs)))
	for _, a := range sc.Attrs {
		writeInt(uint64(len(a.Name)))
		h.Write([]byte(a.Name))
		writeInt(uint64(a.Cardinality))
	}
	writeInt(uint64(counts.Len()))
	counts.Visit(func(_ int, v float64) { writeInt(math.Float64bits(v)) })
	return h.Sum64()
}

// TestFingerprintMatchesDenseOracle: the run-length fingerprint equals the
// per-cell FNV-1a loop on dense vectors with zero runs of every length,
// signed zeros, NaN payloads and infinities, and on the sparse form of
// count vectors, including the empty one.
func TestFingerprintMatchesDenseOracle(t *testing.T) {
	sc := testSchema(t)
	rng := rand.New(rand.NewSource(7))
	special := []float64{math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(-1), 5e-324, 0.5, 3}
	for _, n := range []int{1, 2, 7, 64, 1000, 1 << 17} {
		for _, spread := range []int{1, 3, 40, n + 1} {
			x := make([]float64, n)
			counts := make([]float64, n)
			for i := range x {
				if rng.Intn(spread) == 0 {
					x[i] = special[rng.Intn(len(special))]
					counts[i] = float64(1 + rng.Intn(9))
				}
			}
			for _, v := range []*vector.Blocked{vector.FromDense(x), vector.FromDense(x).CloneBlockLen(accumBlockLen), vector.FromDense(counts)} {
				if got, want := fingerprintDataset(sc, v), fingerprintOracle(sc, v); got != want {
					t.Fatalf("n=%d spread=%d: fingerprint %016x, oracle %016x", n, spread, got, want)
				}
			}
			sb := sparseBuilder{n: n}
			for i, v := range counts {
				sb.add(i, v)
			}
			if sp := sb.vector(); sp != nil {
				if got, want := fingerprintDataset(sc, sp), fingerprintOracle(sc, vector.FromDense(counts)); got != want {
					t.Fatalf("n=%d spread=%d sparse: fingerprint %016x, oracle %016x", n, spread, got, want)
				}
			}
		}
	}
}

// parentSnapshot is internal/store/testdata/adult-shaped.dpds.gz: a
// DPCBSNP1 frame written before datasets could be held sparse, of 40
// Adult rows over workclass, marital-status, relationship and race (13
// bits, 37 non-zeros in 8,192 cells), with the fingerprint that code
// reported for it.
const (
	parentSnapshot    = "testdata/adult-shaped.dpds.gz"
	parentFingerprint = "e16e04e764c57ad1"
)

// TestParentSnapshotLoadsSparse: a snapshot written by the dense-only
// store loads sparse, keeps its fingerprint and re-encodes to the same
// bytes.
func TestParentSnapshotLoadsSparse(t *testing.T) {
	f, err := os.Open(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "adult-shaped.dpds"), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if q := s.QuarantinedSnapshots(); len(q) != 0 {
		t.Fatalf("quarantined: %v", q)
	}
	info, err := s.Describe("adult-shaped")
	if err != nil {
		t.Fatal(err)
	}
	if info.Cells != 8192 || info.StoredCells != 37 || info.ResidentBytes != 12*37 || info.Rows != 40 {
		t.Fatalf("loaded %+v, want 37 of 8192 cells held sparse", info)
	}
	if info.Fingerprint != parentFingerprint {
		t.Fatalf("fingerprint %s, written as %s", info.Fingerprint, parentFingerprint)
	}
	s.mu.Lock()
	d := s.datasets["adult-shaped"]
	s.mu.Unlock()
	meta := datasetMeta{ID: d.id, Schema: d.schema.Attrs, Rows: d.rows, Created: d.created}
	again, err := encodeSnapshot(kindDataset, meta, d.counts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatal("re-encoded snapshot differs from the file")
	}
}

// TestPutCountsFractionalStaysDense: counts the sparse form refuses — a
// fraction, a −0, a negative — keep the dense form, cell for cell and bit
// for bit, while integer counts of the same density go sparse.
func TestPutCountsFractionalStaysDense(t *testing.T) {
	sc := testSchema(t)
	n := sc.DomainSize()
	s := memStore(t)
	for _, odd := range []float64{0.5, math.Copysign(0, -1), -2, math.NaN()} {
		x := make([]float64, n)
		x[3], x[n-1] = 1, odd
		info, err := s.PutCounts("d", sc, x, 1)
		if err != nil {
			t.Fatal(err)
		}
		if info.StoredCells != n || info.ResidentBytes != int64(8*n) {
			t.Fatalf("counts with %v held as %+v, want dense", odd, info)
		}
		h, _ := s.Get("d")
		for i, v := range DenseCounts(h) {
			if math.Float64bits(v) != math.Float64bits(x[i]) {
				t.Fatalf("counts with %v: cell %d = %v, put %v", odd, i, v, x[i])
			}
		}
		h.Close()
	}
	x := make([]float64, n)
	x[3] = 2
	info, err := s.PutCounts("d", sc, x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.StoredCells != 1 {
		t.Fatalf("one integer count held as %+v, want sparse", info)
	}
	if st := s.Stats(); st.ResidentBytes != 12 {
		t.Fatalf("Stats.ResidentBytes = %d, want 12", st.ResidentBytes)
	}
}

// TestSparseResidentBytesExact: a sparse dataset holds exactly the 12
// bytes per non-zero that Info.ResidentBytes reports — its cell and value
// slices have no spare capacity — after the Adult-shaped upload of
// BenchmarkSparseStore, whose accumulator merges into growing buffers, and
// after an append onto it, whose vector.Sum merge is sized for both
// operands but shares most of their cells.
func TestSparseResidentBytesExact(t *testing.T) {
	tab := dataset.SyntheticAdult(2, dataset.AdultTupleCount)
	s := memStore(t)
	ctx := context.Background()
	check := func(stage string, info Info) {
		t.Helper()
		h, err := s.Get("adult")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		cells, vals, ok := vector.Sparse(h.Vector())
		if !ok {
			t.Fatalf("%s: Adult not held sparse", stage)
		}
		if cap(cells) != len(cells) || cap(vals) != len(vals) {
			t.Fatalf("%s: %d non-zeros held in slices of capacity %d (cells) and %d (vals)",
				stage, len(cells), cap(cells), cap(vals))
		}
		if info.ResidentBytes != int64(12*len(cells)) {
			t.Fatalf("%s: ResidentBytes %d, want 12·%d", stage, info.ResidentBytes, len(cells))
		}
	}
	info, err := s.IngestNDJSON(ctx, "adult", strings.NewReader(tableBody(tab)), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("upload", info)
	batch := &dataset.Table{Schema: tab.Schema, Rows: tab.Rows[:1000]}
	if info, err = s.AppendNDJSON(ctx, "adult", strings.NewReader(tableBody(batch)), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	check("append", info)
}

// BenchmarkSparseStore times the sparse form against the dense one on
// Adult-shaped data (2^23 cells, 0.25% non-zero): the NDJSON ingest, the
// fingerprint, and the exact Fourier and cluster Q2 strategy answers S·x
// the measure stage computes.
func BenchmarkSparseStore(b *testing.B) {
	body := tableBody(dataset.SyntheticAdult(2, dataset.AdultTupleCount))
	s := memStore(b)
	if _, err := s.IngestNDJSON(context.Background(), "adult", strings.NewReader(body), IngestOptions{}); err != nil {
		b.Fatal(err)
	}
	h, _ := s.Get("adult")
	defer h.Close()
	sparse := h.Vector()
	if _, _, ok := vector.Sparse(sparse); !ok {
		b.Fatal("Adult not held sparse")
	}
	dense := sparse.CloneBlockLen(accumBlockLen)
	forms := []struct {
		name string
		x    *vector.Blocked
	}{{"sparse", sparse}, {"dense", dense}}

	b.Run("ingest", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for range b.N {
			if _, err := s.IngestNDJSON(context.Background(), "bench", strings.NewReader(body), IngestOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, f := range forms {
		b.Run("fingerprint/"+f.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				fingerprintDataset(h.Schema(), f.x)
			}
		})
	}
	w := marginal.SchemaKWay(h.Schema(), 2)
	for _, st := range []strategy.Strategy{strategy.Fourier{}, strategy.Cluster{}} {
		plan, err := st.Plan(w)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range forms {
			b.Run(fmt.Sprintf("measure/%s-q2/%s", st.Name(), f.name), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					plan.TrueAnswers(f.x, 1)
				}
			})
		}
	}
}

// tableBody is the NDJSON upload of a table.
func tableBody(tab *dataset.Table) string {
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
	return b.String()
}

// TestIngestFormMatchesTableVector: a stream whose distinct cells stay
// within cells/16 ingests sparse and one that passes it mid-stream ingests
// dense, both bit-identical to dataset.Table.Vector and to the worker-pool
// oracle at every worker count (its workers merging on both sides of the
// switch). The accumulator's edge cases ride along: one cell over 10,000
// rows (merges of a single distinct cell), exactly cells/16 distinct cells
// at the first merge (sparse) and one more (dense from that merge on), and
// a cell total reaching 2^53, which the sparse form refuses.
func TestIngestFormMatchesTableVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	wide := dataset.MustSchema([]dataset.Attribute{
		{Name: "a", Cardinality: 64}, {Name: "b", Cardinality: 64}, {Name: "c", Cardinality: 3},
	})
	rows := make([][]int, 3000)
	for i := range rows {
		rows[i] = []int{rng.Intn(64), rng.Intn(64), rng.Intn(3)}
	}
	one := make([][]int, 10_000)
	for i := range one {
		one[i] = []int{37, 5, 2}
	}
	// 2^15 cells: the first merge, at minPending rows, sees limit distinct
	// cells, each row a cell of its own until then, repeated afterwards.
	limit := dataset.MustSchema([]dataset.Attribute{{Name: "a", Cardinality: 256}, {Name: "b", Cardinality: 128}})
	atMerge := func(distinct int) *dataset.Table {
		rows := make([][]int, 3*minPending)
		for i := range rows {
			c := rng.Intn(distinct)
			if i < distinct {
				c = i
			} else if i < minPending {
				c = i % distinct
			}
			rows[i] = []int{c % 256, c / 256}
		}
		return &dataset.Table{Schema: limit, Rows: rows}
	}
	n := limit.DomainSize()
	for _, tc := range []struct {
		name   string
		tab    *dataset.Table
		sparse bool
	}{
		{"adult-500", dataset.SyntheticAdult(4, 500), true},
		{"crossing", &dataset.Table{Schema: wide, Rows: rows}, false},
		{"one-cell", &dataset.Table{Schema: wide, Rows: one}, true},
		{"limit-at-merge", atMerge(n / vector.SparseRatio), true},
		{"over-limit-at-merge", atMerge(n/vector.SparseRatio + 1), false},
	} {
		want, err := tc.tab.Vector()
		if err != nil {
			t.Fatal(err)
		}
		body := tableBody(tc.tab)
		s := memStore(t)
		info, err := s.IngestNDJSON(context.Background(), "d", strings.NewReader(body), IngestOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sparse := info.StoredCells < info.Cells; sparse != tc.sparse {
			t.Fatalf("%s: held %d of %d cells, want sparse=%v", tc.name, info.StoredCells, info.Cells, tc.sparse)
		}
		h, _ := s.Get("d")
		got := DenseCounts(h)
		h.Close()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: cell %d = %v, Vector %v", tc.name, i, got[i], want[i])
			}
		}
		for _, workers := range []int{1, 2, 4, 9} {
			checkAgainstPool(t, []byte(body), workers, IngestOptions{})
		}
	}

	acc := newAccumulator(n)
	acc.add(9)
	acc.merge()
	acc.vals[0] = 1<<53 - 2
	acc.add(3)
	acc.add(9)
	x := acc.vector()
	if _, _, sparse := vector.Sparse(x); sparse || x.At(9) != 1<<53-1 || x.At(3) != 1 {
		t.Fatalf("a 2^53 total held sparse=%v with cells 9, 3 = %v, %v; want dense 2^53−1, 1", sparse, x.At(9), x.At(3))
	}
}

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

// TestIngestFormMatchesTableVector: at every worker count, a stream whose
// distinct cells stay within cells/16 ingests sparse and one that passes
// it mid-stream (workers merging on both sides of the switch) ingests
// dense, both bit-identical to dataset.Table.Vector.
func TestIngestFormMatchesTableVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	wide := dataset.MustSchema([]dataset.Attribute{
		{Name: "a", Cardinality: 64}, {Name: "b", Cardinality: 64}, {Name: "c", Cardinality: 3},
	})
	rows := make([][]int, 3000)
	for i := range rows {
		rows[i] = []int{rng.Intn(64), rng.Intn(64), rng.Intn(3)}
	}
	for _, tc := range []struct {
		name   string
		tab    *dataset.Table
		sparse bool
	}{
		{"adult-500", dataset.SyntheticAdult(4, 500), true},
		{"crossing", &dataset.Table{Schema: wide, Rows: rows}, false},
	} {
		want, err := tc.tab.Vector()
		if err != nil {
			t.Fatal(err)
		}
		body := tableBody(tc.tab)
		for _, workers := range []int{1, 2, 4, 9} {
			s := memStore(t)
			info, err := s.IngestNDJSON(context.Background(), "d", strings.NewReader(body), IngestOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if sparse := info.StoredCells < info.Cells; sparse != tc.sparse {
				t.Fatalf("%s workers=%d: held %d of %d cells, want sparse=%v", tc.name, workers, info.StoredCells, info.Cells, tc.sparse)
			}
			h, _ := s.Get("d")
			got := DenseCounts(h)
			h.Close()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s workers=%d: cell %d = %v, Vector %v", tc.name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

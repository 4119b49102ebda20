package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// TestSnapshotCodecRoundTrip pins the frame format itself.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	type meta struct {
		Name string `json:"name"`
	}
	floats := []float64{0, 1.5, -3.25, 1e300}
	raw, err := encodeSnapshot(kindDataset, meta{Name: "x"}, vector.FromDense(floats))
	if err != nil {
		t.Fatal(err)
	}
	var got meta
	back, err := decodeSnapshot(raw, kindDataset, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "x" || back == nil || back.Len() != len(floats) {
		t.Fatalf("round trip lost data: %+v %v", got, back)
	}
	for i := range floats {
		if back.At(i) != floats[i] {
			t.Fatalf("float %d: %v vs %v", i, back.At(i), floats[i])
		}
	}
	if _, err := decodeSnapshot(raw, kindPlans, &got); err == nil {
		t.Fatal("wrong kind accepted")
	}
	raw[3] ^= 1
	if _, err := decodeSnapshot(raw, kindDataset, &got); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

// clusterWorkload is expensive enough to plan that persistence matters but
// small enough for a unit test.
func clusterWorkload() *marginal.Workload {
	return marginal.AllKWay(8, 2)
}

// TestPlanPersistenceRoundTrip: warm cluster plans survive a simulated
// restart — SavePlans on one cache, LoadPlans into a fresh one — and the
// restored plan is the planner cache hit the ROADMAP item asks for, with
// the exact group structure of a live plan.
func TestPlanPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := clusterWorkload()
	cfg := engine.Config{
		Strategy:  strategy.Cluster{},
		Budgeting: engine.OptimalBudget,
		Privacy:   noise.Params{Type: noise.PureDP, Epsilon: 1, Neighbor: noise.AddRemove},
	}
	warm := engine.NewPlanCache(0)
	livePlan, err := engine.Planner{Cache: warm}.Plan(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s1.SavePlans(warm)
	if err != nil || n != 1 {
		t.Fatalf("SavePlans = %d, %v", n, err)
	}

	// "Restart": a fresh cache over the same directory.
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold := engine.NewPlanCache(0)
	if n, err := s2.LoadPlans(cold); err != nil || n != 1 {
		t.Fatalf("LoadPlans = %d, %v", n, err)
	}
	restored, err := engine.Planner{Cache: cold}.Plan(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("restored plan was not a cache hit: %+v", st)
	}
	if !specsEqual(livePlan.Specs, restored.Specs) {
		t.Fatalf("restored specs differ:\nlive     %+v\nrestored %+v", livePlan.Specs, restored.Specs)
	}

	// The restored plan must recover bit-identically to the live one.
	x := make([]float64, 1<<8)
	for i := range x {
		x[i] = float64((i * 7) % 11)
	}
	za, zb := livePlan.Answers(x), restored.Answers(x)
	gv := make([]float64, len(livePlan.Specs))
	for i := range gv {
		gv[i] = 1
	}
	ansA, _, err := livePlan.Recover(za, gv)
	if err != nil {
		t.Fatal(err)
	}
	ansB, _, err := restored.Recover(zb, gv)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ansA {
		if ansA[i] != ansB[i] {
			t.Fatalf("answer %d: live %v, restored %v", i, ansA[i], ansB[i])
		}
	}
}

// TestLoadPlansMissingFile: a fresh directory has no warm plans — that is
// not an error.
func TestLoadPlansMissingFile(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.LoadPlans(engine.NewPlanCache(0)); n != 0 || err != nil {
		t.Fatalf("LoadPlans on empty dir = %d, %v", n, err)
	}
}

// TestSavePlansSkipsCheapStrategies: only plans carrying a Persist record
// (cluster) are written; Fourier plans re-plan faster than a disk round
// trip.
func TestSavePlansSkipsCheapStrategies(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	w := clusterWorkload()
	cache := engine.NewPlanCache(0)
	if _, err := (engine.Planner{Cache: cache}).Plan(context.Background(), w, engine.Config{
		Strategy: strategy.Fourier{},
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.SavePlans(cache); n != 0 || err != nil {
		t.Fatalf("SavePlans persisted a Fourier plan: %d, %v", n, err)
	}
}

func specsEqual(a, b []budget.Spec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSparseSnapshotFrame: a sparse dataset is persisted as its non-zero
// cells — at most 16 bytes each plus the frame's metadata, not 8 bytes
// per cell of its domain — and reloads in the same form with the same
// fingerprint, after an ingest and after an append. A dense dataset keeps
// the dense frame.
func TestSparseSnapshotFrame(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	adult := dataset.SyntheticAdult(3, dataset.AdultTupleCount)
	if _, err := s1.IngestNDJSON(ctx, "adult", strings.NewReader(tableBody(adult)), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	more := &dataset.Table{Schema: adult.Schema, Rows: dataset.SyntheticAdult(4, 500).Rows}
	if _, err := s1.AppendNDJSON(ctx, "adult", strings.NewReader(tableBody(more)), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.IngestNDJSON(ctx, "dense", strings.NewReader(ndjsonBody(testRows(60))), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := s1.Describe("adult")
	if err != nil {
		t.Fatal(err)
	}
	if want.StoredCells == want.Cells {
		t.Fatalf("Adult held dense: %+v", want)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "adult"+datasetSnapExt))
	if err != nil {
		t.Fatal(err)
	}
	mj, err := json.Marshal(datasetMeta{ID: "adult", Schema: adult.Schema.Attrs, Rows: want.Rows, Created: want.Created})
	if err != nil {
		t.Fatal(err)
	}
	if bound := 16*want.StoredCells + len(snapMagic) + 2 + 4 + len(mj) + 8 + 4; raw[9] != kindSparseDataset || len(raw) > bound {
		t.Fatalf("Adult snapshot: kind %d, %d bytes for %d non-zeros (bound %d)", raw[9], len(raw), want.StoredCells, bound)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "dense"+datasetSnapExt)); err != nil || raw[9] != kindDataset {
		t.Fatalf("dense dataset snapshot: %v, kind %d", err, raw[9])
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if q := s2.QuarantinedSnapshots(); len(q) != 0 {
		t.Fatalf("quarantined: %v", q)
	}
	got, err := s2.Describe("adult")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != want.Fingerprint || got.StoredCells != want.StoredCells || got.Rows != want.Rows {
		t.Fatalf("reloaded %+v, saved %+v", got, want)
	}
	h1, _ := s1.Get("adult")
	defer h1.Close()
	h2, _ := s2.Get("adult")
	defer h2.Close()
	if !sameCounts(h1.Vector(), h2.Vector()) {
		t.Fatal("reloaded counts differ")
	}
}

// FuzzSnapshotFrame feeds arbitrary dataset snapshot files to Open. The
// properties: no panic; a refused file is quarantined and registers
// nothing; an accepted one holds its schema's domain and re-encodes to a
// frame that loads back with the same fingerprint. With fixCRC the input
// is a frame body and the test appends its checksum, so mutations reach
// the payload decoders instead of failing the CRC.
func FuzzSnapshotFrame(f *testing.F) {
	meta := datasetMeta{ID: "x", Schema: testSchema(f).Attrs, Rows: 3}
	sparse, err := vector.NewSparse(32, accumBlockLen, []int32{3, 17}, []float64{2, 1})
	if err != nil {
		f.Fatal(err)
	}
	dense := make([]float64, 32)
	for i := range dense {
		dense[i] = float64(i % 3)
	}
	for _, fr := range []struct {
		kind byte
		vec  *vector.Blocked
	}{{kindSparseDataset, sparse}, {kindDataset, sparse}, {kindDataset, vector.FromDense(dense)}} {
		raw, err := encodeSnapshot(fr.kind, meta, fr.vec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, false)
		f.Add(raw[:len(raw)-4], true)
		f.Add(raw[:len(raw)/2], true)
	}
	f.Fuzz(func(t *testing.T, raw []byte, fixCRC bool) {
		if fixCRC {
			raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "x"+datasetSnapExt), raw, 0o600); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.QuarantinedSnapshots()) != 0 {
			if n := s.Stats().Datasets; n != 0 {
				t.Fatalf("refused snapshot left %d datasets resident", n)
			}
			return
		}
		info, err := s.Describe("x")
		if err != nil {
			t.Fatalf("accepted snapshot not registered: %v", err)
		}
		s.mu.Lock()
		d := s.datasets["x"]
		s.mu.Unlock()
		if d.counts.Len() != d.schema.DomainSize() || d.schema.Dim() > MaxDim {
			t.Fatalf("loaded %d cells for a %d-bit schema", d.counts.Len(), d.schema.Dim())
		}
		again := t.TempDir()
		tmp, err := writeDatasetSnapshotTmp(again, d)
		if err != nil {
			t.Fatal(err)
		}
		back, err := loadDatasetSnapshot(tmp)
		if err != nil {
			t.Fatalf("re-encoded snapshot refused: %v", err)
		}
		if fp, _ := fingerprintCount(back.schema, back.counts); fmt.Sprintf("%016x", fp) != info.Fingerprint {
			t.Fatalf("re-encoded snapshot fingerprint %016x, loaded %s", fp, info.Fingerprint)
		}
	})
}

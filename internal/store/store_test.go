package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHandleSurvivesDeletion: the refcounting contract — a release holding
// a handle finishes against the data it admitted, no matter what happens to
// the registry.
func TestHandleSurvivesDeletion(t *testing.T) {
	s := memStore(t)
	if _, err := s.IngestNDJSON(context.Background(), "d", strings.NewReader(ndjsonBody(testRows(50))), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	h, err := s.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Describe("d"); info.ActiveHandles != 1 {
		t.Fatalf("want 1 active handle, got %d", info.ActiveHandles)
	}
	if err := s.Delete("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("d"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted dataset still resident: %v", err)
	}
	total := 0.0
	for _, c := range DenseCounts(h) {
		total += c
	}
	if total != 50 {
		t.Fatalf("handle lost its data after deletion: total %v", total)
	}
	h.Close()
	h.Close() // idempotent
	if st := s.Stats(); st.ActiveHandles != 0 {
		t.Fatalf("stats count dangling handles: %+v", st)
	}
}

// TestReplaceKeepsOldHandles: PUT over an existing id swaps the registry
// entry; handles over the old version keep the old aggregate.
func TestReplaceKeepsOldHandles(t *testing.T) {
	s := memStore(t)
	ctx := context.Background()
	if _, err := s.IngestNDJSON(ctx, "d", strings.NewReader(ndjsonBody(testRows(10))), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	old, err := s.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestNDJSON(ctx, "d", strings.NewReader(ndjsonBody(testRows(99))), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	defer old.Close()
	if old.Rows() != 10 || fresh.Rows() != 99 {
		t.Fatalf("want old=10 fresh=99 rows, got %d and %d", old.Rows(), fresh.Rows())
	}
}

// TestListDescribeStats covers the read-side registry surface.
func TestListDescribeStats(t *testing.T) {
	s := memStore(t)
	ctx := context.Background()
	for _, id := range []string{"zeta", "alpha"} {
		if _, err := s.IngestNDJSON(ctx, id, strings.NewReader(ndjsonBody(testRows(20))), IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	infos := s.List()
	if len(infos) != 2 || infos[0].ID != "alpha" || infos[1].ID != "zeta" {
		t.Fatalf("List not sorted by id: %+v", infos)
	}
	if infos[0].Persisted {
		t.Fatal("memory-only store claims persistence")
	}
	st := s.Stats()
	if st.Datasets != 2 || st.TotalRows != 40 || st.TotalCells != 2*testSchema(t).DomainSize() {
		t.Fatalf("bad stats: %+v", st)
	}
	if _, err := s.Describe("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Describe(missing): %v", err)
	}
}

// TestEvictionLRU: past MaxDatasets the least-recently-used unpinned
// dataset goes; pinned datasets never do, and an all-pinned store refuses
// new ingests with ErrStoreFull.
func TestEvictionLRU(t *testing.T) {
	s, err := Open(Config{MaxDatasets: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	body := func() *strings.Reader { return strings.NewReader(ndjsonBody(testRows(5))) }
	for _, id := range []string{"a", "b"} {
		if _, err := s.IngestNDJSON(ctx, id, body(), IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	h, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if _, err := s.IngestNDJSON(ctx, "c", body(), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want b evicted, got %v", err)
	}
	if _, err := s.Get("a"); err != nil {
		t.Fatalf("recently used dataset evicted: %v", err)
	} // leaves a pinned
	hc, err := s.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	// Both residents now pinned: a new id must be refused, but replacing a
	// resident id must still work (no net growth).
	if _, err := s.IngestNDJSON(ctx, "dd", body(), IngestOptions{}); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("want ErrStoreFull, got %v", err)
	}
	if _, err := s.IngestNDJSON(ctx, "c", body(), IngestOptions{}); err != nil {
		t.Fatalf("replacing a resident id must not need an eviction: %v", err)
	}
}

// TestPersistenceRoundTrip: the upload-once acceptance criterion — a store
// reopened over the same directory serves previously ingested datasets,
// bit-identically, without re-upload.
func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.IngestNDJSON(ctx, "census", strings.NewReader(ndjsonBody(testRows(321))), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	h1, err := s1.Get("census")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), DenseCounts(h1)...)
	h1.Close()

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s2.Get("census")
	if err != nil {
		t.Fatalf("restarted store lost the dataset: %v", err)
	}
	defer h2.Close()
	if h2.Rows() != 321 {
		t.Fatalf("want 321 rows after reload, got %d", h2.Rows())
	}
	got := DenseCounts(h2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: reloaded %v, original %v", i, got[i], want[i])
		}
	}
	// Snapshots never contain raw rows: the file must be dominated by the
	// 2^d payload, and deleting the dataset removes it.
	path := filepath.Join(dir, "census"+datasetSnapExt)
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if err := s2.Delete("census"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("deleted dataset left its snapshot: %v", err)
	}
}

// TestOpenQuarantinesCorruptSnapshot: a flipped byte must fail the CRC —
// the dataset is never served — but one corrupt file must not take the
// healthy datasets (or the daemon) down with it.
func TestOpenQuarantinesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range []string{"bad", "good"} {
		if _, err := s1.IngestNDJSON(ctx, id, strings.NewReader(ndjsonBody(testRows(30))), IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "bad"+datasetSnapExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("one corrupt snapshot took Open down: %v", err)
	}
	if _, err := s2.Get("bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt snapshot was served: %v", err)
	}
	if _, err := s2.Get("good"); err != nil {
		t.Fatalf("healthy dataset lost to a neighbour's corruption: %v", err)
	}
	q := s2.QuarantinedSnapshots()
	if len(q) != 1 || !strings.Contains(q[0], "checksum") {
		t.Fatalf("quarantine not reported: %v", q)
	}
}

// TestOpenSweepsOrphanedTempFiles: a crash between CreateTemp and rename
// leaves a .snap-* file; the next Open removes it.
func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, ".snap-123456")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived Open: %v", err)
	}
}

func TestValidateID(t *testing.T) {
	for _, ok := range []string{"a", "A-1_b.c", strings.Repeat("x", 128)} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a\\b", "ü", "a b", strings.Repeat("x", 129)} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) accepted", bad)
		}
	}
}

func TestVersionAndChangeHook(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var changed []string
	s.SetChangeHook(func(id string) { changed = append(changed, id) })

	sch := testSchema(t)
	counts := make([]float64, sch.DomainSize())
	info1, err := s.PutCounts("a", sch, counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Version == 0 {
		t.Fatal("install did not assign a version")
	}
	h, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if h.Version() != info1.Version {
		t.Fatalf("handle version %d, info version %d", h.Version(), info1.Version)
	}
	h.Close()

	// Replace bumps the version and fires the hook; delete+recreate can
	// never reuse an old version.
	info2, err := s.PutCounts("a", sch, counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version <= info1.Version {
		t.Fatalf("replace version %d not above %d", info2.Version, info1.Version)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	info3, err := s.PutCounts("a", sch, counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info3.Version <= info2.Version {
		t.Fatalf("recreate version %d not above %d", info3.Version, info2.Version)
	}
	want := []string{"a", "a", "a", "a"} // put, replace, delete, recreate
	if len(changed) != len(want) {
		t.Fatalf("hook fired %d times (%v), want %d", len(changed), changed, len(want))
	}
	for i, id := range want {
		if changed[i] != id {
			t.Fatalf("hook call %d = %q, want %q", i, changed[i], id)
		}
	}
}

// TestFingerprintHandshake: the fingerprint is a pure function of the data —
// equal across processes that ingested the same stream and across snapshot
// reload (where the process-local Version is reassigned) — and changes
// whenever the counts do.
func TestFingerprintHandshake(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := ndjsonBody(testRows(64))
	i1, err := s1.IngestNDJSON(ctx, "d", strings.NewReader(body), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i2, err := s2.IngestNDJSON(ctx, "d", strings.NewReader(body), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if i1.Fingerprint == "" || i1.Fingerprint == fmt.Sprintf("%016x", 0) {
		t.Fatal("fingerprint not computed")
	}
	if i1.Fingerprint != i2.Fingerprint {
		t.Fatalf("same stream, different fingerprints: %s vs %s", i1.Fingerprint, i2.Fingerprint)
	}

	// Snapshot reload preserves it even though Version restarts.
	s3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	i3, err := s3.Describe("d")
	if err != nil {
		t.Fatal(err)
	}
	if i3.Fingerprint != i1.Fingerprint {
		t.Fatalf("snapshot reload changed fingerprint: %s vs %s", i3.Fingerprint, i1.Fingerprint)
	}

	// Appending rows changes the counts, so the fingerprint must move.
	i4, err := s2.AppendNDJSON(ctx, "d", strings.NewReader(ndjsonBody(testRows(3))), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if i4.Fingerprint == i1.Fingerprint {
		t.Fatal("append left the fingerprint unchanged")
	}
	// Describe reports the same hash the append returned.
	info, err := s2.Describe("d")
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != i4.Fingerprint {
		t.Fatalf("Describe fingerprint = %q, want %q", info.Fingerprint, i4.Fingerprint)
	}
}

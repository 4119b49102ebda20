package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// Snapshot codec — one frame per file; see the package documentation for
// the layout. Dataset snapshots (kindDataset: schema + every cell;
// kindSparseDataset: schema + the non-zero cells), plan-set snapshots
// (kindPlans: rebuildable strategy.PlanRecords) and ledger snapshots share
// it: metadata travels as JSON, bulk float payloads as raw IEEE-754 bits,
// and a trailing CRC-32 rejects torn or corrupted files loudly.

const (
	snapMagic   = "DPCBSNP1"
	snapVersion = 1

	kindDataset       byte = 1
	kindPlans         byte = 2
	kindLedgers       byte = 3
	kindSparseDataset byte = 4

	datasetSnapExt  = ".dpds"
	plansSnapName   = "plans.dpps"
	ledgersSnapName = "ledgers.dplg"
)

// datasetMeta is the JSON metadata of a dataset snapshot. Deliberately no
// rows, no per-tuple anything: the payload is the aggregated vector only.
type datasetMeta struct {
	ID      string              `json:"id"`
	Schema  []dataset.Attribute `json:"schema"`
	Rows    int64               `json:"rows"`
	Created time.Time           `json:"created"`
}

// plansMeta is the JSON metadata of a plan-set snapshot.
type plansMeta struct {
	Plans []*strategy.PlanRecord `json:"plans"`
}

// ledgersMeta is the JSON metadata of a budget-ledger snapshot: the global
// charge history (every charge once, whichever key made it) plus each
// per-key ledger's history. Charges carry only privacy parameters and
// operator-chosen labels — like dataset snapshots, nothing row-level.
type ledgersMeta struct {
	Composition string                         `json:"composition"`
	Global      []accountant.Charge            `json:"global"`
	PerKey      map[string][]accountant.Charge `json:"per_key,omitempty"`
}

func snapName(id string) string { return id + datasetSnapExt }

// encodeSnapshot assembles a complete frame in memory. One contiguous
// frame buffer keeps the CRC and the atomic-rename write trivial. The
// payload (none for frames without a vector) is written straight from the
// vector, which is never gathered. Under kindSparseDataset it is the
// vector's non-zero cells, 12 bytes each; under any other kind it is every
// cell, 8 bytes each, whatever form the vector is held in.
func encodeSnapshot(kind byte, meta any, vec *vector.Blocked) ([]byte, error) {
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: encoding snapshot metadata: %w", err)
	}
	var (
		n, payload int
		cells      []int32
		vals       []float64
		sparse     bool
	)
	if vec != nil {
		n, payload = vec.Len(), 8*vec.Len()
		cells, vals, sparse = vector.Sparse(vec)
	}
	if kind == kindSparseDataset {
		if !sparse {
			return nil, fmt.Errorf("store: sparse snapshot of a dense vector")
		}
		payload = 12 * len(cells)
	}
	buf := make([]byte, 0, len(snapMagic)+2+4+len(mj)+8+payload+4)
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(mj)))
	buf = append(buf, mj...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	switch {
	case kind == kindSparseDataset:
		for j, c := range cells {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(vals[j]))
		}
	case vec != nil:
		buf = appendPayload(buf, vec)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// appendPayload appends vec's cells, in ascending order, as little-endian
// float64 bits, whatever form vec is held in.
func appendPayload(buf []byte, vec *vector.Blocked) []byte {
	vec.Segments(0, vec.Len(), func(_ int, seg []float64) {
		for _, v := range seg {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	})
	return buf
}

// decodeSnapshot validates a frame and unpacks its metadata and floats.
// A dataset frame of either kind is accepted where kindDataset is wanted.
// The payload is decoded into the form the store holds (see holdAs; nil
// when the frame carries none), never into one giant slice; a sparse frame
// never allocates its domain.
func decodeSnapshot(raw []byte, wantKind byte, meta any) (*vector.Blocked, error) {
	hdr := len(snapMagic) + 2 + 4
	if len(raw) < hdr+8+4 {
		return nil, fmt.Errorf("store: snapshot truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("store: not a snapshot (bad magic)")
	}
	if v := raw[len(snapMagic)]; v != snapVersion {
		return nil, fmt.Errorf("store: snapshot version %d not supported (want %d)", v, snapVersion)
	}
	kind := raw[len(snapMagic)+1]
	if kind != wantKind && !(kind == kindSparseDataset && wantKind == kindDataset) {
		return nil, fmt.Errorf("store: snapshot kind %d, want %d", kind, wantKind)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("store: snapshot checksum mismatch (corrupt file)")
	}
	metaLen := int(binary.LittleEndian.Uint32(raw[len(snapMagic)+2 : hdr]))
	if hdr+metaLen+8 > len(body) {
		return nil, fmt.Errorf("store: snapshot metadata overruns the file")
	}
	if err := json.Unmarshal(raw[hdr:hdr+metaLen], meta); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot metadata: %w", err)
	}
	off := hdr + metaLen
	n := binary.LittleEndian.Uint64(raw[off : off+8])
	payload := body[off+8:]
	if kind == kindSparseDataset {
		return decodeSparsePayload(n, payload)
	}
	if uint64(len(payload)) != 8*n {
		return nil, fmt.Errorf("store: snapshot declares %d floats, carries %d bytes", n, len(payload))
	}
	if n == 0 {
		return nil, nil
	}
	vec := vector.NewBlockLen(int(n), accumBlockLen)
	for bi := 0; bi < vec.Blocks(); bi++ {
		bl := vec.Block(bi)
		for i := range bl {
			bl[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload))
			payload = payload[8:]
		}
	}
	return holdAs(vec), nil
}

// decodeSparsePayload reads a kindSparseDataset payload of n cells: its
// non-zero cells as (uint32 cell, float64 bits) pairs, ascending. The
// pairs must form a valid sparse count vector (vector.NewSparse), which
// is then held in the store's form.
func decodeSparsePayload(n uint64, payload []byte) (*vector.Blocked, error) {
	if len(payload)%12 != 0 {
		return nil, fmt.Errorf("store: sparse snapshot carries %d bytes, not whole (cell, count) pairs", len(payload))
	}
	cells := make([]int32, len(payload)/12)
	vals := make([]float64, len(cells))
	for j := range cells {
		cells[j] = int32(binary.LittleEndian.Uint32(payload[12*j:]))
		vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[12*j+4:]))
	}
	// NewSparse refuses a length outside [0, 2^31] (int(n) of a larger n
	// is too), and cells out of range or order: a uint32 cell past 2^31
	// reads as a negative int32.
	sp, err := vector.NewSparse(int(n), accumBlockLen, cells, vals)
	if err != nil {
		return nil, fmt.Errorf("store: sparse snapshot: %w", err)
	}
	return holdAs(sp), nil
}

// writeSnapshotFile writes a frame to a fresh temporary file in dir and
// returns its path; the caller renames it into place (atomically, under the
// registry lock) or removes it on failure.
func writeSnapshotFile(dir string, kind byte, meta any, vec *vector.Blocked) (string, error) {
	buf, err := encodeSnapshot(kind, meta, vec)
	if err != nil {
		return "", err
	}
	f, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return "", fmt.Errorf("store: creating snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("store: writing snapshot: %w", err)
	}
	return f.Name(), nil
}

// writeDatasetSnapshotTmp persists a dataset as an uninstalled temp file.
func writeDatasetSnapshotTmp(dir string, d *Dataset) (string, error) {
	meta := datasetMeta{
		ID:      d.id,
		Schema:  d.schema.Attrs,
		Rows:    d.rows,
		Created: d.created,
	}
	kind := kindDataset
	if _, _, sparse := vector.Sparse(d.counts); sparse {
		kind = kindSparseDataset
	}
	return writeSnapshotFile(dir, kind, meta, d.counts)
}

// loadDatasetSnapshot reads and validates one dataset snapshot.
func loadDatasetSnapshot(path string) (*Dataset, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	var meta datasetMeta
	counts, err := decodeSnapshot(raw, kindDataset, &meta)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	if err := ValidateID(meta.ID); err != nil {
		return nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	schema, err := dataset.NewSchema(meta.Schema)
	if err == nil {
		err = CheckDim(schema)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	if counts == nil || counts.Len() != schema.DomainSize() {
		got := 0
		if counts != nil {
			got = counts.Len()
		}
		return nil, fmt.Errorf("store: %s: %d counts for a domain of %d cells",
			filepath.Base(path), got, schema.DomainSize())
	}
	return &Dataset{
		id:      meta.ID,
		schema:  schema,
		counts:  counts,
		rows:    meta.Rows,
		created: meta.Created,
	}, nil
}

// SavePlans snapshots the cache's rebuildable plan records (cluster plans —
// the only ones whose planning is worth a disk round trip) under the
// store's directory. A no-op without persistence or when nothing in the
// cache can be persisted. Returns how many records were written.
func (s *Store) SavePlans(c *engine.PlanCache) (int, error) {
	if s.cfg.Dir == "" || c == nil {
		return 0, nil
	}
	recs := c.Records()
	if len(recs) == 0 {
		return 0, nil
	}
	tmp, err := writeSnapshotFile(s.cfg.Dir, kindPlans, plansMeta{Plans: recs}, nil)
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(s.cfg.Dir, plansSnapName)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: installing plan snapshot: %w", err)
	}
	return len(recs), nil
}

// SaveLedgers snapshots a budget registry's complete charge history —
// global and per-key — under the store's directory, atomically replacing
// the previous snapshot. Privacy spend is the one piece of server state
// that must never regress: a restarted daemon that forgot its spend would
// hand every tenant a fresh budget over the same data. A no-op without
// persistence. Returns the number of global charges written.
func (s *Store) SaveLedgers(reg *accountant.Registry) (int, error) {
	if s.cfg.Dir == "" || reg == nil {
		return 0, nil
	}
	global, perKey := reg.History()
	meta := ledgersMeta{
		Composition: reg.Composition().Name(),
		Global:      global,
		PerKey:      perKey,
	}
	tmp, err := writeSnapshotFile(s.cfg.Dir, kindLedgers, meta, nil)
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(s.cfg.Dir, ledgersSnapName)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: installing ledger snapshot: %w", err)
	}
	return len(global), nil
}

// LoadLedgers replays a previously saved charge history into the registry,
// returning the number of restored global charges. A missing snapshot is
// not an error (a fresh directory has no spend yet); a corrupt one IS —
// unlike plans, silently serving with a zeroed ledger would under-count
// spend, so the caller must refuse to start instead.
func (s *Store) LoadLedgers(reg *accountant.Registry) (int, error) {
	if s.cfg.Dir == "" || reg == nil {
		return 0, nil
	}
	raw, err := os.ReadFile(filepath.Join(s.cfg.Dir, ledgersSnapName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: reading ledger snapshot: %w", err)
	}
	var meta ledgersMeta
	if _, err := decodeSnapshot(raw, kindLedgers, &meta); err != nil {
		return 0, err
	}
	// A snapshot recorded under one composition must not be reinterpreted
	// under another: replaying a near-cap basic history into a zCDP
	// registry would compose to a far smaller spend and silently hand
	// every tenant fresh budget over the same data (and the reverse would
	// refuse everything). The operator switches composition by retiring
	// the snapshot deliberately, not by restarting with a new flag.
	if got, want := meta.Composition, reg.Composition().Name(); got != want {
		return 0, fmt.Errorf("store: ledger snapshot was recorded under %q composition, registry uses %q; remove %s to discard the recorded spend deliberately",
			got, want, ledgersSnapName)
	}
	if err := reg.Restore(meta.Global, meta.PerKey); err != nil {
		return 0, err
	}
	return len(meta.Global), nil
}

// LoadPlans rebuilds and installs previously saved plans into the cache,
// returning how many were installed. A missing snapshot is not an error —
// a fresh directory simply has no warm plans yet.
func (s *Store) LoadPlans(c *engine.PlanCache) (int, error) {
	if s.cfg.Dir == "" || c == nil {
		return 0, nil
	}
	raw, err := os.ReadFile(filepath.Join(s.cfg.Dir, plansSnapName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: reading plan snapshot: %w", err)
	}
	var meta plansMeta
	if _, err := decodeSnapshot(raw, kindPlans, &meta); err != nil {
		return 0, err
	}
	return c.Install(meta.Plans)
}

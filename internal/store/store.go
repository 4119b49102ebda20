package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	mathbits "math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/vector"
)

// Typed errors, tested with errors.Is. The serving layer maps ErrNotFound
// to 404, ErrInvalidDataset to 400 and ErrStoreFull to 507.
var (
	// ErrNotFound reports a dataset id absent from the registry.
	ErrNotFound = errors.New("store: dataset not found")
	// ErrInvalidDataset reports a rejected ingestion: bad id, bad header,
	// malformed or out-of-range row, oversized line, truncated stream.
	ErrInvalidDataset = errors.New("store: invalid dataset")
	// ErrStoreFull reports that the registry is at capacity and every
	// resident dataset is pinned by in-flight handles.
	ErrStoreFull = errors.New("store: dataset capacity reached")
)

// Config sizes a Store.
type Config struct {
	// Dir enables snapshot persistence when non-empty: every ingested
	// dataset is written as a snapshot under Dir and reloaded on Open.
	Dir string
	// MaxDatasets bounds the registry (0 = unlimited). When a new ingest
	// would pass the bound, the least-recently-used dataset with no active
	// handles is evicted (memory and snapshot both); if every dataset is
	// pinned the ingest fails with ErrStoreFull.
	MaxDatasets int
}

// Store is the concurrency-safe dataset registry. All methods may be called
// from any goroutine.
type Store struct {
	cfg Config

	mu         sync.Mutex
	datasets   map[string]*Dataset
	useSeq     int64 // recency clock for LRU eviction
	verSeq     int64 // monotonic dataset-version clock, see Handle.Version
	quarantine []string
	changeHook func(id string)
}

// SetChangeHook registers a callback invoked (outside the store lock) after
// any mutation of the registry under an id — ingest, replace, append,
// delete. The serving layer uses it to invalidate derived caches keyed on
// (id, version). At most one hook; set it before traffic starts.
func (s *Store) SetChangeHook(hook func(id string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.changeHook = hook
}

// Dataset is one ingested relation, reduced to its aggregated contingency
// vector (vector.Blocked) in the form the store picks at install (see
// holdAs): the list of non-zero cells when at most one cell in
// vector.SparseRatio is non-zero, dense shards otherwise. Releases feed the
// engine from either form without ever gathering one giant slice.
// Immutable after registration; replacing or appending to an id registers
// a new Dataset, and handles over the old one stay valid.
type Dataset struct {
	id      string
	schema  *dataset.Schema
	counts  *vector.Blocked
	rows    int64
	created time.Time
	version int64  // store-global monotonic, assigned at install
	fprint  uint64 // content fingerprint, stable across processes
	nnz     int    // cells whose bit pattern is non-zero, counted by seal

	refs     atomic.Int64 // active handles
	lastUsed int64        // store.useSeq at last Get/ingest (under store.mu)
}

// Handle is a reference-counted view of a dataset. Close it when the
// release using it finishes; an unclosed handle keeps the dataset's memory
// alive past deletion.
type Handle struct {
	d      *Dataset
	closed atomic.Bool
}

// ID returns the dataset id the handle was acquired under.
func (h *Handle) ID() string { return h.d.id }

// Schema returns the dataset's schema.
func (h *Handle) Schema() *dataset.Schema { return h.d.schema }

// Vector returns the aggregated contingency vector (2^d cells) in its
// stored form, sparse or sharded. The storage is shared by every handle
// over this dataset and by the engine reading it: treat it as read-only. (Copying 2^d floats per
// release would defeat the upload-once design; the engine's measure/recover
// stages never write to their input vector.) The vector is frozen
// (vector.Freeze), so the engine may serve later releases over it from
// memoised strategy answers: a write would go unseen by them.
func (h *Handle) Vector() *vector.Blocked { return h.d.counts }

// DenseCounts gathers a handle's contingency vector into one dense 2^d
// slice. It is an explicitly dense TEST helper — the last sanctioned dense
// materialization between ingest and release — and exists only so tests
// can compare stored aggregates cell by cell. Serving paths must read
// through Handle.Vector (the blocked accessor), which never gathers; a
// server that calls DenseCounts re-introduces the 8·2^d allocation the
// blocked pipeline exists to avoid. The result is a fresh copy when the
// dataset is sparse or spans multiple shards (treat it as read-only either
// way).
func DenseCounts(h *Handle) []float64 { return h.d.counts.Dense() }

// Rows returns the number of ingested tuples.
func (h *Handle) Rows() int64 { return h.d.rows }

// Version returns the dataset's install version: a store-global monotonic
// counter assigned every time a Dataset is installed under an id (ingest,
// replace, append) — never reused, so (id, version) uniquely identifies the
// exact counts a handle reads, even across delete-and-recreate of the same
// id within one process. Versions are not persisted; a restarted process
// assigns fresh ones, which is safe because everything keyed on them (the
// release-result cache) is in-memory too.
func (h *Handle) Version() int64 { return h.d.version }

// Created returns the ingestion time.
func (h *Handle) Created() time.Time { return h.d.created }

// Close releases the handle. Idempotent.
func (h *Handle) Close() {
	if h.closed.CompareAndSwap(false, true) {
		h.d.refs.Add(-1)
	}
}

// Info is the public description of a resident dataset.
type Info struct {
	ID string `json:"id"`
	// Schema lists the attributes in declaration order.
	Schema []dataset.Attribute `json:"schema"`
	// Rows is the ingested tuple count; Cells is the contingency-vector
	// length 2^d, whatever the store holds of it.
	Rows  int64 `json:"rows"`
	Cells int   `json:"cells"`
	// StoredCells is the number of cell values the store holds: the
	// non-zero cells of a sparse dataset, all Cells of a dense one.
	StoredCells int `json:"stored_cells"`
	// ResidentBytes is the memory those cells occupy: 12 bytes per
	// non-zero when sparse, 8 per cell when dense.
	ResidentBytes int64 `json:"resident_bytes"`
	// Version is the install version of the resident dataset (see
	// Handle.Version).
	Version int64 `json:"version"`
	// Fingerprint is a content hash of the dataset — schema layout plus
	// every cell of the aggregated counts, in cell order — hex-encoded so
	// JSON round-trips don't lose uint64 precision. Unlike Version it is a
	// pure function of the data, so two processes that ingested the same
	// stream (or loaded the same snapshot) report the same fingerprint.
	Fingerprint string `json:"fingerprint"`
	// ActiveHandles counts in-flight references (releases reading the
	// dataset right now).
	ActiveHandles int64     `json:"active_handles"`
	Created       time.Time `json:"created"`
	// Persisted reports whether a snapshot backs the dataset on disk.
	Persisted bool `json:"persisted"`
}

// Stats aggregates the registry for the metrics endpoint.
type Stats struct {
	Datasets      int   `json:"datasets"`
	TotalCells    int   `json:"total_cells"`
	TotalRows     int64 `json:"total_rows"`
	ActiveHandles int64 `json:"active_handles"`
	// ResidentBytes sums every resident dataset's Info.ResidentBytes.
	ResidentBytes int64 `json:"resident_bytes"`
}

// Open builds a Store. With cfg.Dir set, the directory is created if needed
// and every dataset snapshot in it is loaded, so the registry resumes where
// the previous process stopped.
func Open(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg, datasets: make(map[string]*Dataset)}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", cfg.Dir, err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", cfg.Dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		// Sweep temp files a crash mid-ingest left behind: they were never
		// renamed into place, so nothing references them.
		if strings.HasPrefix(e.Name(), ".snap-") {
			os.Remove(filepath.Join(cfg.Dir, e.Name()))
			continue
		}
		if !strings.HasSuffix(e.Name(), datasetSnapExt) {
			continue
		}
		d, err := loadDatasetSnapshot(filepath.Join(cfg.Dir, e.Name()))
		if err == nil && snapName(d.id) != e.Name() {
			err = fmt.Errorf("store: snapshot %s declares dataset id %q", e.Name(), d.id)
		}
		if err != nil {
			// Quarantine, don't crash: one corrupt snapshot must not take
			// every healthy dataset down with the daemon. The file is left
			// in place for forensics and reported via QuarantinedSnapshots;
			// it is never served.
			s.quarantine = append(s.quarantine, fmt.Sprintf("%s: %v", e.Name(), err))
			continue
		}
		s.verSeq++
		d.version = s.verSeq
		d.seal()
		s.datasets[d.id] = d
	}
	return s, nil
}

// FNV-1a 64 parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a is an FNV-1a 64 state that defers zero bytes. FNV-1a of a zero
// byte is one multiply by the prime, so z zero bytes in a row multiply the
// state by prime^z mod 2^64. The state counts them and pays prime^z when
// the next non-zero byte arrives, one multiply per base-64 digit of z from
// fnvPrimePow. The float64 of a small count ends in five or more zero bytes
// and a zero cell is eight, so a count vector hashes in about one multiply
// per non-zero cell byte and per gap between non-zero cells.
type fnv64a struct {
	h     uint64
	zeros uint64 // zero bytes not yet multiplied in
}

// fnvPrimePow[i][e] is fnvPrime64^(e·64^i) mod 2^64; eleven digits cover
// every uint64 exponent.
var fnvPrimePow = func() (t [11][64]uint64) {
	p := uint64(fnvPrime64) // fnvPrime64^(64^i)
	for i := range t {
		t[i][0] = 1
		for e := 1; e < 64; e++ {
			t[i][e] = t[i][e-1] * p
		}
		p = t[i][63] * p
	}
	return t
}()

func newFNV64a() fnv64a { return fnv64a{h: fnvOffset64} }

// flush multiplies in the deferred zero bytes.
func (f *fnv64a) flush() {
	for i, z := 0, f.zeros; z != 0; i, z = i+1, z>>6 {
		f.h *= fnvPrimePow[i][z&63]
	}
	f.zeros = 0
}

func (f *fnv64a) write(p []byte) {
	f.flush()
	for _, c := range p {
		f.h ^= uint64(c)
		f.h *= fnvPrime64
	}
}

// writeUint64 absorbs v's big-endian bytes. Leading and trailing zero bytes
// are deferred; the bytes between them are hashed as in write.
func (f *fnv64a) writeUint64(v uint64) {
	if v == 0 {
		f.zeros += 8
		return
	}
	lead, trail := mathbits.LeadingZeros64(v)/8, mathbits.TrailingZeros64(v)/8
	f.zeros += uint64(lead)
	f.flush()
	for s := 56 - 8*lead; s >= 8*trail; s -= 8 {
		f.h ^= v >> uint(s) & 0xff
		f.h *= fnvPrime64
	}
	f.zeros = uint64(trail)
}

// zeroCells absorbs r cells whose float64 bits are all zero.
func (f *fnv64a) zeroCells(r int) { f.zeros += 8 * uint64(r) }

// sum returns the hash of everything absorbed.
func (f *fnv64a) sum() uint64 {
	f.flush()
	return f.h
}

// seal computes the dataset's fingerprint and non-zero count, then freezes
// its counts. It runs once, at install or snapshot load, before the dataset
// is published. From then on the counts are immutable, which lets the
// engine memoise exact strategy answers over them (vector.Freeze).
func (d *Dataset) seal() {
	d.fprint, d.nnz = fingerprintCount(d.schema, d.counts)
	vector.Freeze(d.counts)
}

// fingerprintCount hashes the schema layout and every count cell in
// ascending cell order (FNV-64a over the big-endian float64 bit patterns),
// and counts the cells whose bit pattern is non-zero on the same walk.
// Runs of zero cells are absorbed at once (fnv64a defers zero bytes), so a
// sparse dataset hashes in a few multiplies per non-zero cell and either
// form of the same cells gives the same value. Computed at install and at snapshot load, so the value survives
// restarts and agrees across processes holding the same data.
func fingerprintCount(sc *dataset.Schema, counts *vector.Blocked) (uint64, int) {
	h := newFNV64a()
	h.writeUint64(uint64(len(sc.Attrs)))
	for _, a := range sc.Attrs {
		h.writeUint64(uint64(len(a.Name)))
		h.write([]byte(a.Name))
		h.writeUint64(uint64(a.Cardinality))
	}
	n := counts.Len()
	h.writeUint64(uint64(n))
	if cells, vals, ok := vector.Sparse(counts); ok {
		next := 0
		for j, c := range cells {
			h.zeroCells(int(c) - next)
			h.writeUint64(math.Float64bits(vals[j]))
			next = int(c) + 1
		}
		h.zeroCells(n - next)
		return h.sum(), len(cells)
	}
	nnz := 0
	counts.Segments(0, n, func(_ int, seg []float64) {
		for _, v := range seg {
			b := math.Float64bits(v)
			if b != 0 {
				nnz++
			}
			h.writeUint64(b)
		}
	})
	return h.sum(), nnz
}

// sparseBuilder collects the non-zero cells of a count vector, visited in
// ascending order, for the sparse form; it gives up as soon as they pass
// one in vector.SparseRatio cells.
type sparseBuilder struct {
	n     int
	cells []int32
	vals  []float64
	over  bool
}

func (sb *sparseBuilder) add(i int, v float64) {
	if sb.over || math.Float64bits(v) == 0 {
		return
	}
	if (len(sb.cells)+1)*vector.SparseRatio > sb.n {
		sb.over, sb.cells, sb.vals = true, nil, nil
		return
	}
	sb.cells = append(sb.cells, int32(i))
	sb.vals = append(sb.vals, v)
}

// vector returns the collected cells in the sparse form, or nil when they
// are too many or not positive integer counts totalling below 2^53.
func (sb *sparseBuilder) vector() *vector.Blocked {
	if sb.over {
		return nil
	}
	v, err := vector.NewSparse(sb.n, accumBlockLen, sb.cells, sb.vals)
	if err != nil {
		return nil
	}
	return v
}

// holdAs returns counts in the form the store holds: sparse iff at most
// one cell in vector.SparseRatio is non-zero (nnz·16 ≤ cells, the marginal
// kernel's crossover) and the values are positive integer counts totalling
// below 2^53; dense blocks otherwise. A dense vector that stays dense is
// returned as is. On a dense vector it walks every cell.
func holdAs(counts *vector.Blocked) *vector.Blocked {
	if cells, _, ok := vector.Sparse(counts); ok {
		if len(cells)*vector.SparseRatio <= counts.Len() {
			return counts
		}
		return counts.CloneBlockLen(accumBlockLen)
	}
	sb := sparseBuilder{n: counts.Len()}
	counts.Segments(0, counts.Len(), func(off int, seg []float64) {
		for j, v := range seg {
			sb.add(off+j, v)
		}
	})
	if sp := sb.vector(); sp != nil {
		return sp
	}
	return counts
}

// QuarantinedSnapshots reports snapshot files Open refused to load (and
// why), so the operator learns about corruption instead of a silent gap in
// the registry.
func (s *Store) QuarantinedSnapshots() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.quarantine...)
}

// ValidateID reports whether id is an acceptable dataset id: 1–128 runes of
// [A-Za-z0-9._-], not starting with a dot. The id doubles as the snapshot
// file name, so the alphabet deliberately excludes path separators and
// anything else the filesystem could reinterpret.
func ValidateID(id string) error {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return fmt.Errorf("%w: dataset id %q (want 1-128 chars of [A-Za-z0-9._-], no leading dot)", ErrInvalidDataset, id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: dataset id %q contains %q", ErrInvalidDataset, id, c)
		}
	}
	return nil
}

// IngestNDJSON streams the NDJSON body into a new dataset registered under
// id, replacing any existing dataset with that id (handles over the old
// version stay valid). The stream is aggregated with bounded memory — see
// the package documentation for the wire format and transactionality.
func (s *Store) IngestNDJSON(ctx context.Context, id string, r io.Reader, opts IngestOptions) (Info, error) {
	if err := ValidateID(id); err != nil {
		return Info{}, err
	}
	schema, counts, rows, err := ingestNDJSON(ctx, r, opts)
	if err != nil {
		return Info{}, err
	}
	return s.register(&Dataset{
		id:      id,
		schema:  schema,
		counts:  counts,
		rows:    rows,
		created: time.Now().UTC(),
	})
}

// PutCounts registers a pre-aggregated contingency vector directly (tests,
// in-process embedders). The vector is copied into the form the store
// holds (see holdAs): counts with a fraction, a negative or a −0 stay
// dense.
func (s *Store) PutCounts(id string, schema *dataset.Schema, counts []float64, rows int64) (Info, error) {
	if err := ValidateID(id); err != nil {
		return Info{}, err
	}
	if schema == nil {
		return Info{}, fmt.Errorf("%w: nil schema", ErrInvalidDataset)
	}
	if len(counts) != schema.DomainSize() {
		return Info{}, fmt.Errorf("%w: counts has %d entries, domain needs %d",
			ErrInvalidDataset, len(counts), schema.DomainSize())
	}
	bv := holdAs(vector.FromDense(counts))
	if _, _, sparse := vector.Sparse(bv); !sparse {
		bv = bv.CloneBlockLen(accumBlockLen)
	}
	return s.register(&Dataset{
		id:      id,
		schema:  schema,
		counts:  bv,
		rows:    rows,
		created: time.Now().UTC(),
	})
}

// AppendNDJSON streams an NDJSON body (same wire format as IngestNDJSON,
// header line included) and sums its aggregated counts into the existing
// dataset registered under id — delta ingestion for relations that grow.
// The header schema must equal the resident dataset's schema exactly.
//
// Append is transactional: any decode, validation or persistence failure
// leaves the resident dataset untouched, and a failed stream registers
// nothing. The merged aggregate is installed as a new immutable Dataset
// (snapshot rewritten atomically), so handles over the pre-append version
// keep reading the counts they admitted. Concurrent appends serialise via
// optimistic retry — each recomputes its sum against the current winner.
func (s *Store) AppendNDJSON(ctx context.Context, id string, r io.Reader, opts IngestOptions) (Info, error) {
	if err := ValidateID(id); err != nil {
		return Info{}, err
	}
	schema, delta, rows, err := ingestNDJSON(ctx, r, opts)
	if err != nil {
		return Info{}, err
	}
	for {
		s.mu.Lock()
		old, ok := s.datasets[id]
		s.mu.Unlock()
		if !ok {
			return Info{}, fmt.Errorf("%w: %q (append needs an existing dataset)", ErrNotFound, id)
		}
		if !old.schema.Equal(schema) {
			return Info{}, fmt.Errorf("%w: append schema does not match dataset %q", ErrInvalidDataset, id)
		}
		// Datasets are immutable, so the sum over the grabbed snapshot is
		// stable; per cell the order is resident + delta. Two sparse
		// operands merge in O(nnz + Δ); the sum then takes whichever form
		// its density calls for, so a dataset may cross to dense.
		merged, err := vector.Sum(old.counts, delta)
		if err != nil {
			return Info{}, fmt.Errorf("%w: %v", ErrInvalidDataset, err)
		}
		next := &Dataset{
			id:      id,
			schema:  old.schema,
			counts:  appendForm(old, delta, merged),
			rows:    old.rows + rows,
			created: time.Now().UTC(),
		}
		info, installed, err := s.registerWhen(next, old, true)
		if err != nil || installed {
			return info, err
		}
		// A racing replace/append won; recompute against the new resident.
	}
}

// appendForm returns merged = old + delta in the form holdAs(merged)
// returns. A sparse delta changes only its own cells, so a dense sum's
// non-zero count is the resident's (counted by seal) corrected at those
// cells, in O(Δ) lookups; past cells/SparseRatio the sum stays dense and
// holdAs's walk of the domain is skipped. Every other case takes it.
func appendForm(old *Dataset, delta, merged *vector.Blocked) *vector.Blocked {
	dcells, _, sparseDelta := vector.Sparse(delta)
	if _, _, sparseSum := vector.Sparse(merged); sparseSum || !sparseDelta {
		return holdAs(merged)
	}
	nnz := old.nnz
	for _, c := range dcells {
		if math.Float64bits(old.counts.At(int(c))) != 0 {
			nnz--
		}
		if math.Float64bits(merged.At(int(c))) != 0 {
			nnz++
		}
	}
	if nnz*vector.SparseRatio > merged.Len() {
		return merged
	}
	return holdAs(merged)
}

// register persists the snapshot (outside the lock — file IO must not block
// readers), then swaps the dataset into the registry and renames the
// snapshot into place under the lock, so disk and memory always converge on
// the same winner when two ingests race on one id.
func (s *Store) register(d *Dataset) (Info, error) {
	info, _, err := s.registerWhen(d, nil, false)
	return info, err
}

// registerWhen is register, gated when conditional on the registry still
// holding expect under d's id — the install step of an optimistic append.
// Reports whether the install happened; a false return with nil error
// means the caller lost a race and should recompute.
func (s *Store) registerWhen(d *Dataset, expect *Dataset, conditional bool) (Info, bool, error) {
	// Seal before taking the lock: the fingerprint walks every stored
	// cell, and nothing it reads can change (the Dataset is not yet
	// published).
	d.seal()
	var tmp string
	if s.cfg.Dir != "" {
		var err error
		if tmp, err = writeDatasetSnapshotTmp(s.cfg.Dir, d); err != nil {
			return Info{}, false, err
		}
	}
	s.mu.Lock()
	if conditional && s.datasets[d.id] != expect {
		s.mu.Unlock()
		if tmp != "" {
			os.Remove(tmp)
		}
		return Info{}, false, nil
	}
	if _, replacing := s.datasets[d.id]; !replacing && s.cfg.MaxDatasets > 0 {
		for len(s.datasets) >= s.cfg.MaxDatasets {
			if !s.evictLocked() {
				n := len(s.datasets)
				s.mu.Unlock()
				if tmp != "" {
					os.Remove(tmp)
				}
				return Info{}, false, fmt.Errorf("%w: %d datasets resident, all with active handles",
					ErrStoreFull, n)
			}
		}
	}
	if tmp != "" {
		final := filepath.Join(s.cfg.Dir, snapName(d.id))
		if err := os.Rename(tmp, final); err != nil {
			s.mu.Unlock()
			os.Remove(tmp)
			return Info{}, false, fmt.Errorf("store: installing snapshot: %w", err)
		}
	}
	s.useSeq++
	d.lastUsed = s.useSeq
	s.verSeq++
	d.version = s.verSeq
	s.datasets[d.id] = d
	info := s.infoLocked(d)
	hook := s.changeHook
	s.mu.Unlock()
	// The hook fires outside the lock: cache invalidation must not be able
	// to deadlock against store readers.
	if hook != nil {
		hook(d.id)
	}
	return info, true, nil
}

// evictLocked drops the least-recently-used unpinned dataset. Reports
// whether anything could be evicted.
func (s *Store) evictLocked() bool {
	var victim *Dataset
	for _, d := range s.datasets {
		if d.refs.Load() > 0 {
			continue
		}
		if victim == nil || d.lastUsed < victim.lastUsed {
			victim = d
		}
	}
	if victim == nil {
		return false
	}
	delete(s.datasets, victim.id)
	if s.cfg.Dir != "" {
		os.Remove(filepath.Join(s.cfg.Dir, snapName(victim.id)))
	}
	return true
}

// Get acquires a reference-counted handle; the caller must Close it.
func (s *Store) Get(id string) (*Handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.useSeq++
	d.lastUsed = s.useSeq
	d.refs.Add(1)
	return &Handle{d: d}, nil
}

// Delete removes the dataset from disk first, then from the registry: if
// the snapshot removal fails the dataset stays resident and the caller sees
// the error — deletion must never "succeed" in memory while the sensitive
// snapshot survives a restart. In-flight handles stay valid; their memory
// is reclaimed once the last one closes.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	d, ok := s.datasets[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if s.cfg.Dir != "" {
		if err := os.Remove(filepath.Join(s.cfg.Dir, snapName(d.id))); err != nil && !os.IsNotExist(err) {
			s.mu.Unlock()
			return fmt.Errorf("store: removing snapshot: %w", err)
		}
	}
	delete(s.datasets, id)
	hook := s.changeHook
	s.mu.Unlock()
	if hook != nil {
		hook(id)
	}
	return nil
}

// Describe returns the Info for one dataset.
func (s *Store) Describe(id string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[id]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s.infoLocked(d), nil
}

// List returns every resident dataset's Info, sorted by id.
func (s *Store) List() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.datasets))
	for _, d := range s.datasets {
		//dpvet:ignore detmap -- the map-order append is re-sorted by the insertion sort below (kept dependency-free instead of sort.Slice, which detmap would recognise)
		out = append(out, s.infoLocked(d))
	}
	// Insertion sort: registries are small and the dependency-free loop
	// keeps the package's import graph flat.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Stats aggregates the registry.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Datasets: len(s.datasets)}
	for _, d := range s.datasets {
		st.TotalCells += d.counts.Len()
		st.ResidentBytes += int64(vector.ResidentBytes(d.counts))
		st.TotalRows += d.rows
		st.ActiveHandles += d.refs.Load()
	}
	return st
}

// Dir returns the snapshot directory ("" when persistence is off).
func (s *Store) Dir() string { return s.cfg.Dir }

func (s *Store) infoLocked(d *Dataset) Info {
	return Info{
		ID:            d.id,
		Schema:        append([]dataset.Attribute(nil), d.schema.Attrs...),
		Rows:          d.rows,
		Cells:         d.counts.Len(),
		StoredCells:   vector.Stored(d.counts),
		ResidentBytes: int64(vector.ResidentBytes(d.counts)),
		Version:       d.version,
		Fingerprint:   fmt.Sprintf("%016x", d.fprint),
		ActiveHandles: d.refs.Load(),
		Created:       d.created,
		Persisted:     s.cfg.Dir != "",
	}
}

package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/vector"
)

// IngestOptions tunes the streaming decoder. The zero value is ready to
// use. Options never change the ingested counts — the aggregate is
// bit-identical at any worker count and line budget.
type IngestOptions struct {
	// Workers bounds the decode/validate worker pool. 0 = all CPUs;
	// 1 forces serial ingestion.
	Workers int
	// MaxLineBytes bounds a single NDJSON line (0 = DefaultMaxLineBytes).
	// A longer line rejects the stream — one hostile row must not balloon
	// the daemon's memory.
	MaxLineBytes int
}

// DefaultMaxLineBytes bounds one NDJSON line unless overridden. Generous:
// a tuple of 64 attributes is well under a kilobyte.
const DefaultMaxLineBytes = 1 << 20

// MaxDim bounds the encoded width, in bits, of a schema that untrusted
// input may declare. Ingest allocates nothing per cell before it reads a
// row — it starts from a map of the distinct cells seen — but a stream
// whose distinct cells pass one in vector.SparseRatio switches to dense
// counters, 2^d int64 plus 2^d float64 cells, and releases over the
// dataset may materialise 2^d-cell vectors (identity, synthetic). Without
// a bound a few dozen bytes of header plus enough rows could ask for
// gigabytes (16 GiB at bits.MaxDim = 30). 24 bits — 256 MiB of dense
// cells — admits the largest paper dataset (Adult, 23 bits) with room to
// spare.
const MaxDim = 24

// Batching constants. Batches bound in-flight memory: at most
// workers+batchQueue batches of ≤ batchBytes (plus one line that may
// individually reach MaxLineBytes) are buffered at any moment, regardless
// of how many rows the stream carries.
const (
	batchRows  = 256
	batchBytes = 64 << 10
	batchQueue = 4
)

// CheckDim refuses a schema wider than MaxDim bits. Every decoder of
// untrusted schemas calls it before allocating the schema's domain.
func CheckDim(schema *dataset.Schema) error {
	if d := schema.Dim(); d > MaxDim {
		return fmt.Errorf("schema encodes to %d bits, above the %d-bit domain limit", d, MaxDim)
	}
	return nil
}

// ingestHeader is the first NDJSON line.
type ingestHeader struct {
	Schema []struct {
		Name        string `json:"name"`
		Cardinality int    `json:"cardinality"`
	} `json:"schema"`
}

// batch is a copied slice of raw lines plus their 1-based line numbers
// (for error reporting; blank lines are skipped, so numbers may jump).
type batch struct {
	buf   []byte  // concatenated line bytes
	offs  []int32 // row i is buf[offs[i]:offs[i+1]]
	lines []int64 // row i came from input line lines[i]
}

// accumBlockLen is the cell count of one ingest-accumulator shard (and of
// every stored dataset vector): a power of two, so the cell→shard map is a
// shift and the shards can feed transforms directly.
const accumBlockLen = vector.DefaultBlockLen

// accumulator is the contingency accumulator. It starts sparse: the
// workers' per-batch maps merge into one map of distinct cells under a
// mutex, taken once per batch. When the distinct cells pass one in
// vector.SparseRatio of the domain it switches, once, to fixed cell-range
// shards of int64 counters updated with lock-free atomic adds (cell
// granularity — the shards exist for allocation and for feeding
// vector.Blocked, not for locking). So ingest memory is O(min(distinct
// cells, 2^d)), no contiguous 2^d slice is ever allocated, and a sparse
// stream never allocates its domain at all.
type accumulator struct {
	n      int
	dense  atomic.Bool // set once blocks is live; merges then skip mu
	mu     sync.Mutex
	cells  map[int]int64 // distinct cells while sparse, under mu
	blocks [][]int64
}

func newAccumulator(n int) *accumulator {
	return &accumulator{n: n, cells: make(map[int]int64)}
}

// merge folds one batch's pre-aggregated cells into the accumulator.
// Integer addition commutes exactly, so the order of merges never shows.
func (a *accumulator) merge(local map[int]int64) {
	if !a.dense.Load() {
		a.mu.Lock()
		if !a.dense.Load() {
			for idx, c := range local {
				a.cells[idx] += c
			}
			if len(a.cells)*vector.SparseRatio > a.n {
				a.densify()
			}
			a.mu.Unlock()
			return
		}
		a.mu.Unlock()
	}
	for idx, c := range local {
		atomic.AddInt64(&a.blocks[idx/accumBlockLen][idx%accumBlockLen], c)
	}
}

// densify moves the distinct cells into dense counter shards. Called under
// mu (or after the workers are done), before any atomic add can run.
func (a *accumulator) densify() {
	for lo := 0; lo < a.n; lo += accumBlockLen {
		a.blocks = append(a.blocks, make([]int64, min(accumBlockLen, a.n-lo)))
	}
	for idx, c := range a.cells {
		a.blocks[idx/accumBlockLen][idx%accumBlockLen] = c
	}
	a.cells = nil
	a.dense.Store(true)
}

// vector converts the aggregate into the blocked float vector the engine
// consumes: the sparse form while the distinct cells stayed at most one in
// vector.SparseRatio, else the dense shards, converted shard by shard.
func (a *accumulator) vector() *vector.Blocked {
	if !a.dense.Load() {
		cells := make([]int32, 0, len(a.cells))
		for idx := range a.cells {
			cells = append(cells, int32(idx))
		}
		slices.Sort(cells)
		vals := make([]float64, len(cells))
		for i, c := range cells {
			vals[i] = float64(a.cells[int(c)])
		}
		if v, err := vector.NewSparse(a.n, accumBlockLen, cells, vals); err == nil {
			return v
		}
		// A total of 2^53 rows or more cannot be held sparse.
		a.densify()
	}
	fblocks := make([][]float64, len(a.blocks))
	for i, bl := range a.blocks {
		fb := make([]float64, len(bl))
		for j, c := range bl {
			fb[j] = float64(c)
		}
		fblocks[i] = fb
	}
	bv, err := vector.FromSlices(fblocks)
	if err != nil {
		// The shards are uniform by construction.
		panic(err)
	}
	return bv
}

// ingestNDJSON streams the reader into an aggregated contingency vector.
// Returns the schema from the header line, the counts (2^d cells, sparse or
// sharded as the accumulator ended) and the row count. Any error rejects the whole stream.
func ingestNDJSON(ctx context.Context, r io.Reader, opts IngestOptions) (*dataset.Schema, *vector.Blocked, int64, error) {
	maxLine := opts.MaxLineBytes
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	br := bufio.NewReaderSize(r, bufferFor(maxLine))
	lineNo := int64(0)
	schema, err := readHeader(br, &lineNo, maxLine)
	if err != nil {
		return nil, nil, 0, err
	}

	// Workers pre-aggregate each batch in a local map first, so repeated
	// tuples (the common case in low-cardinality relations) cost one atomic
	// add per distinct cell per batch, not one per row.
	counts := newAccumulator(schema.DomainSize())
	var rows atomic.Int64

	work := make(chan batch, batchQueue)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
	)
	abort := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make(map[int]int64, batchRows)
			for b := range work {
				if failed.Load() || ctx.Err() != nil {
					continue // drain without decoding
				}
				clear(local)
				n, err := decodeBatch(schema, b, local)
				if err != nil {
					abort(err)
					continue
				}
				counts.merge(local)
				rows.Add(n)
			}
		}()
	}

	feedErr := feedBatches(ctx, br, &lineNo, maxLine, work, &failed)
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	if firstErr != nil {
		return nil, nil, 0, firstErr
	}
	if feedErr != nil {
		return nil, nil, 0, feedErr
	}
	return schema, counts.vector(), rows.Load(), nil
}

// bufferFor sizes the bufio.Reader so ReadSlice's buffer-full condition is
// exactly the line-length bound (plus the delimiter byte).
func bufferFor(maxLine int) int {
	n := maxLine + 1
	if n < 64 {
		n = 64
	}
	return n
}

// readHeader consumes lines until the first non-blank one and parses it as
// the schema header. An empty body (no header at all) is rejected: there is
// nothing to register.
func readHeader(br *bufio.Reader, lineNo *int64, maxLine int) (*dataset.Schema, error) {
	for {
		line, err := readLine(br, lineNo, maxLine)
		if err == io.EOF {
			return nil, fmt.Errorf("%w: empty body (want a schema header line)", ErrInvalidDataset)
		}
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			continue
		}
		var hdr ingestHeader
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&hdr); err != nil {
			return nil, fmt.Errorf("%w: line %d: bad schema header: %v", ErrInvalidDataset, *lineNo, err)
		}
		if len(hdr.Schema) == 0 {
			return nil, fmt.Errorf("%w: line %d: schema header names no attributes", ErrInvalidDataset, *lineNo)
		}
		attrs := make([]dataset.Attribute, len(hdr.Schema))
		for i, a := range hdr.Schema {
			attrs[i] = dataset.Attribute{Name: a.Name, Cardinality: a.Cardinality}
		}
		schema, err := dataset.NewSchema(attrs)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, *lineNo, err)
		}
		if err := CheckDim(schema); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, *lineNo, err)
		}
		return schema, nil
	}
}

// readLine returns the next line, trimmed of its delimiter and surrounding
// whitespace, with the reused reader buffer still backing it (callers copy
// before the next read). io.EOF means the stream is cleanly exhausted; a
// final line without a trailing newline is returned like any other.
func readLine(br *bufio.Reader, lineNo *int64, maxLine int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch err {
	case nil:
	case bufio.ErrBufferFull:
		return nil, fmt.Errorf("%w: line %d exceeds the %d-byte line limit", ErrInvalidDataset, *lineNo+1, maxLine)
	case io.EOF:
		if len(line) == 0 {
			return nil, io.EOF
		}
		// Final line without trailing newline: legal NDJSON tail. If the
		// producer was cut off mid-row the JSON is incomplete and the
		// decoder rejects it below — truncation cannot slip through.
	default:
		return nil, fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, *lineNo+1, err)
	}
	*lineNo++
	return bytes.TrimSpace(line), nil
}

// feedBatches reads lines into bounded batches and hands them to the pool,
// stopping early when a worker failed or the context is done.
func feedBatches(ctx context.Context, br *bufio.Reader, lineNo *int64, maxLine int, work chan<- batch, failed *atomic.Bool) error {
	cur := batch{offs: []int32{0}}
	flush := func() bool {
		if len(cur.lines) == 0 {
			return true
		}
		select {
		case work <- cur:
		case <-ctx.Done():
			return false
		}
		cur = batch{offs: []int32{0}}
		return true
	}
	for {
		if failed.Load() || ctx.Err() != nil {
			return nil // the caller reports the worker/context error
		}
		line, err := readLine(br, lineNo, maxLine)
		if err == io.EOF {
			flush()
			return nil
		}
		if err != nil {
			return err
		}
		if len(line) == 0 {
			continue
		}
		cur.buf = append(cur.buf, line...)
		cur.offs = append(cur.offs, int32(len(cur.buf)))
		cur.lines = append(cur.lines, *lineNo)
		if len(cur.lines) >= batchRows || len(cur.buf) >= batchBytes {
			if !flush() {
				return nil
			}
		}
	}
}

// decodeBatch parses and validates every line of a batch, folding encoded
// cell indices into the local accumulator. Returns the row count.
func decodeBatch(schema *dataset.Schema, b batch, local map[int]int64) (int64, error) {
	tuple := make([]int, len(schema.Attrs))
	for i := range b.lines {
		line := b.buf[b.offs[i]:b.offs[i+1]]
		if err := decodeTuple(line, tuple); err != nil {
			return 0, fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, b.lines[i], err)
		}
		idx, err := schema.Encode(tuple)
		if err != nil {
			return 0, fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, b.lines[i], err)
		}
		local[idx]++
	}
	return int64(len(b.lines)), nil
}

// decodeTuple parses one NDJSON row — a JSON array of integers — into the
// reusable tuple slice. It scans the line bytes directly and allocates
// nothing unless it rejects the row. It accepts exactly what encoding/json
// accepts as an array of int64s: JSON whitespace between tokens, -0, and
// nothing else — no fraction, exponent, leading zero, '+', overflow,
// nested value, string or literal, no missing or trailing comma and no
// bytes after the closing bracket. Range checks are schema.Encode's.
func decodeTuple(line []byte, tuple []int) error {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '[' {
		return fmt.Errorf("bad row: want a JSON array of attribute values")
	}
	n := 0
	if i = skipSpace(line, i+1); i < len(line) && line[i] == ']' {
		i++
	} else {
		for {
			v, next, ok := scanInt(line, i)
			if !ok {
				return fmt.Errorf("bad row: value %d is not a JSON integer", n)
			}
			if n >= len(tuple) {
				return fmt.Errorf("row has more than %d values", len(tuple))
			}
			tuple[n] = v
			n++
			if i = skipSpace(line, next); i == len(line) {
				return fmt.Errorf("bad row: unterminated array")
			}
			if line[i] == ']' {
				i++
				break
			}
			if line[i] != ',' {
				return fmt.Errorf("bad row: want ',' or ']' after value %d", n-1)
			}
			i = skipSpace(line, i+1)
		}
	}
	if skipSpace(line, i) != len(line) {
		return fmt.Errorf("bad row: trailing data after the array")
	}
	if n != len(tuple) {
		return fmt.Errorf("row has %d values, schema has %d attributes", n, len(tuple))
	}
	return nil
}

// skipSpace returns the first index at or after i that is not JSON
// whitespace.
func skipSpace(line []byte, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\n' || line[i] == '\r') {
		i++
	}
	return i
}

// scanInt reads a JSON number at line[i:] that is an int64: an optional
// '-', then 0 or a digit run without a leading zero, not followed by a
// fraction, an exponent or another digit. It returns the value and the
// index after it.
func scanInt(line []byte, i int) (int, int, bool) {
	neg := i < len(line) && line[i] == '-'
	if neg {
		i++
	}
	if i == len(line) || line[i] < '0' || line[i] > '9' {
		return 0, i, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var mag uint64
	if line[i] == '0' {
		i++
	} else {
		for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
			d := uint64(line[i] - '0')
			if mag > (limit-d)/10 {
				return 0, i, false
			}
			mag = mag*10 + d
		}
	}
	if i < len(line) {
		if c := line[i]; c == '.' || c == 'e' || c == 'E' || (c >= '0' && c <= '9') {
			return 0, i, false
		}
	}
	if neg {
		return int(-mag), i, true
	}
	return int(mag), i, true
}

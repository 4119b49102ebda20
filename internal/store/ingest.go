package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	mathbits "math/bits"
	"slices"

	"repro/internal/dataset"
	"repro/internal/vector"
)

// IngestOptions tunes the streaming decoder. The zero value is ready to
// use. Options never change the ingested counts.
type IngestOptions struct {
	// MaxLineBytes bounds a single NDJSON line (0 = DefaultMaxLineBytes).
	// A longer line rejects the stream — one hostile row must not balloon
	// the daemon's memory.
	MaxLineBytes int
}

// DefaultMaxLineBytes bounds one NDJSON line unless overridden. Generous:
// a tuple of 64 attributes is well under a kilobyte.
const DefaultMaxLineBytes = 1 << 20

// readBufBytes sizes the ingest reader. A line longer than it is assembled
// in a buffer that grows with the line, up to the line limit, so a stream
// of short rows never pays for MaxLineBytes.
const readBufBytes = 64 << 10

// MaxDim bounds the encoded width, in bits, of a schema that untrusted
// input may declare. Ingest allocates nothing per cell before it reads a
// row — it starts from a sorted list of the distinct cells seen — but a
// stream whose distinct cells pass one in vector.SparseRatio switches to
// dense counters, 2^d float64 cells, and releases over the dataset may
// materialise 2^d-cell vectors (identity, synthetic). Without a bound a
// few dozen bytes of header plus enough rows could ask for gigabytes
// (8 GiB at bits.MaxDim = 30). 24 bits — 128 MiB of dense cells — admits
// the largest paper dataset (Adult, 23 bits) with room to spare.
const MaxDim = 24

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

// accumBlockLen is the cell count of one dense accumulator block (and of
// every stored dataset vector): a power of two, so the cell→block map is a
// shift and the blocks can feed transforms directly.
const accumBlockLen = vector.DefaultBlockLen

// accumulator is the contingency accumulator. It starts sparse: each row's
// cell goes into a pending buffer, and when the buffer holds
// max(minPending, 2·distinct) cells it is sorted and merged into the
// ascending list of distinct cells and their counts. When the distinct
// cells pass one in vector.SparseRatio of the domain at a merge it
// switches, once, to dense float64 counters in fixed cell-range blocks. The
// distinct count only grows, so the final form is the one a check after
// every row would pick. Ingest memory is O(min(distinct cells, 2^d)), no
// contiguous 2^d slice is ever allocated, and a sparse stream never
// allocates its domain at all. Every count is an integer below 2^53, so a
// float64 counter holds it exactly.
type accumulator struct {
	n       int
	pending []int32     // row cells not yet merged, while sparse
	cells   []int32     // distinct cells, ascending, while sparse
	vals    []float64   // their counts
	spare   []int32     // merge scratch, swapped with cells
	spareV  []float64   // merge scratch, swapped with vals
	blocks  [][]float64 // dense counters once blocks is non-nil
}

// minPending is the least pending-buffer size that triggers a merge. Each
// merge walks the whole distinct list, so the buffer grows with it (at
// 2·distinct the walk costs under one step per row); the floor keeps the
// first merges from running on a handful of rows.
const minPending = 4096

func newAccumulator(n int) *accumulator {
	return &accumulator{n: n, pending: make([]int32, 0, minPending)}
}

// add counts one row in cell idx.
func (a *accumulator) add(idx int) {
	if a.blocks != nil {
		a.blocks[idx/accumBlockLen][idx%accumBlockLen]++
		return
	}
	a.pending = append(a.pending, int32(idx))
	if len(a.pending) >= max(minPending, 2*len(a.cells)) {
		a.merge()
	}
}

// merge sorts the pending cells into the distinct list, then switches to
// dense counters if the distinct cells passed one in vector.SparseRatio.
func (a *accumulator) merge() {
	p := a.pending
	need := len(a.cells) + len(p)
	cells, vals := slices.Grow(a.spare[:0], need), slices.Grow(a.spareV[:0], need)
	radixSort(p, cells[:len(p)], a.n)
	i := 0
	for j := 0; j < len(p); {
		c, k := p[j], j+1
		for k < len(p) && p[k] == c {
			k++
		}
		for i < len(a.cells) && a.cells[i] < c {
			cells, vals = append(cells, a.cells[i]), append(vals, a.vals[i])
			i++
		}
		v := float64(k - j)
		if i < len(a.cells) && a.cells[i] == c {
			v += a.vals[i]
			i++
		}
		cells, vals = append(cells, c), append(vals, v)
		j = k
	}
	cells, vals = append(cells, a.cells[i:]...), append(vals, a.vals[i:]...)
	a.spare, a.spareV = a.cells[:0], a.vals[:0]
	a.cells, a.vals, a.pending = cells, vals, p[:0]
	if len(a.cells)*vector.SparseRatio > a.n {
		a.densify()
	}
}

// radixSort sorts the cells p, each below n, in place with tmp (as long as
// p) as scratch: least significant digit first, in at most two counting
// passes of at most 12 bits for a domain of up to 2^24 cells. On Adult's
// pending cells it takes a third of pdqsort's time.
func radixSort(p, tmp []int32, n int) {
	width := mathbits.Len(uint(n - 1))
	passes := (width + 11) / 12
	if passes == 0 {
		return
	}
	digit := (width + passes - 1) / passes
	mask := int32(1)<<digit - 1
	var count [1 << 12]int32
	src, dst := p, tmp
	for shift := 0; shift < width; shift += digit {
		clear(count[:mask+1])
		for _, c := range src {
			count[c>>shift&mask]++
		}
		var sum int32
		for i, k := range count[:mask+1] {
			count[i], sum = sum, sum+k
		}
		for _, c := range src {
			d := c >> shift & mask
			dst[count[d]] = c
			count[d]++
		}
		src, dst = dst, src
	}
	copy(p, src)
}

// densify moves the distinct and pending cells into dense counter blocks.
func (a *accumulator) densify() {
	for lo := 0; lo < a.n; lo += accumBlockLen {
		a.blocks = append(a.blocks, make([]float64, min(accumBlockLen, a.n-lo)))
	}
	for i, idx := range a.cells {
		a.blocks[idx/accumBlockLen][idx%accumBlockLen] = a.vals[i]
	}
	for _, idx := range a.pending {
		a.blocks[idx/accumBlockLen][idx%accumBlockLen]++
	}
	a.pending, a.cells, a.vals, a.spare, a.spareV = nil, nil, nil, nil, nil
}

// vector converts the aggregate into the blocked float vector the engine
// consumes: the sparse form while the distinct cells stayed at most one in
// vector.SparseRatio, else the dense blocks themselves.
func (a *accumulator) vector() *vector.Blocked {
	if a.blocks == nil {
		a.merge()
	}
	if a.blocks == nil {
		if v, err := vector.NewSparse(a.n, accumBlockLen, a.cells, a.vals); err == nil {
			return v
		}
		// A total of 2^53 rows or more cannot be held sparse.
		a.densify()
	}
	bv, err := vector.FromSlices(a.blocks)
	if err != nil {
		// The blocks are uniform by construction.
		panic(err)
	}
	return bv
}

// scanRow is the fast path for the rows producers send: the strict form
// [v,v,…] — no whitespace, sign or leading zero, one in-range value per
// attribute — scanned straight into the cell index from the schema's bit
// layout. It accepts a subset of what decodeTuple plus Schema.Encode
// accept, with the same cell; every other line, and so every error
// message, goes through them.
func scanRow(line []byte, schema *dataset.Schema) (int, bool) {
	if len(line) < 2 || line[0] != '[' || line[len(line)-1] != ']' {
		return 0, false
	}
	// line ends in ']', so a digit run always stops inside the line.
	i, idx := 1, 0
	for a, attr := range schema.Attrs {
		if a > 0 {
			if line[i] != ',' {
				return 0, false
			}
			i++
		}
		// The first digit is read apart: most values have one digit, and
		// a leading 0 ends the value (a digit after it fails the ',' or
		// ']' check that follows).
		v := int(line[i] - '0')
		if v > 9 || v >= attr.Cardinality {
			return 0, false
		}
		for i++; v != 0; i++ {
			d := line[i] - '0'
			if d > 9 {
				break
			}
			if v = v*10 + int(d); v >= attr.Cardinality {
				return 0, false
			}
		}
		idx |= v << schema.Offset(a)
	}
	return idx, i == len(line)-1
}

// ingestNDJSON streams the reader into an aggregated contingency vector.
// Returns the schema from the header line, the counts (2^d cells, sparse or
// dense as the accumulator ended) and the row count. Any error rejects the
// whole stream; a done context takes precedence over any other error.
func ingestNDJSON(ctx context.Context, r io.Reader, opts IngestOptions) (*dataset.Schema, *vector.Blocked, int64, error) {
	lr := &lineReader{br: bufio.NewReaderSize(r, readBufBytes), maxLine: opts.MaxLineBytes}
	if lr.maxLine <= 0 {
		lr.maxLine = DefaultMaxLineBytes
	}
	schema, err := readHeader(lr)
	if err != nil {
		return nil, nil, 0, err
	}
	counts := newAccumulator(schema.DomainSize())
	tuple := make([]int, len(schema.Attrs))
	var rows int64
	for err == nil {
		// The context is polled every 1,024 lines: often enough to stop a
		// cancelled upload promptly, rarely enough to cost nothing.
		if lr.lineNo%1024 == 0 && ctx.Err() != nil {
			break
		}
		var line []byte
		if line, err = lr.next(); err != nil || len(line) == 0 {
			continue
		}
		idx, ok := scanRow(line, schema)
		if !ok {
			if err = decodeTuple(line, tuple); err == nil {
				idx, err = schema.Encode(tuple)
			}
			if err != nil {
				err = fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, lr.lineNo, err)
				continue
			}
		}
		counts.add(idx)
		rows++
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, 0, cerr
	}
	if err != io.EOF {
		return nil, nil, 0, err
	}
	return schema, counts.vector(), rows, nil
}

// lineReader yields a stream's lines through a readBufBytes reader,
// counting them from 1.
type lineReader struct {
	br      *bufio.Reader
	maxLine int
	lineNo  int64  // lines returned so far
	long    []byte // assembles a line longer than br's buffer
}

// next returns the next line, trimmed of its delimiter and surrounding
// whitespace. The slice is valid until the next call. io.EOF means the
// stream is cleanly exhausted; a final line without a trailing newline is
// returned like any other. A line of more than maxLine bytes, not
// counting its newline, rejects the stream.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull && len(lr.long) <= lr.maxLine {
			line, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	switch err {
	case nil, bufio.ErrBufferFull:
	case io.EOF:
		if len(line) == 0 {
			return nil, io.EOF
		}
		// Final line without trailing newline: legal NDJSON tail. If the
		// producer was cut off mid-row the JSON is incomplete and the
		// decoder rejects it — truncation cannot slip through.
	default:
		return nil, fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, lr.lineNo+1, err)
	}
	body := len(line)
	if body > 0 && line[body-1] == '\n' {
		body--
	}
	if body > lr.maxLine {
		return nil, fmt.Errorf("%w: line %d exceeds the %d-byte line limit", ErrInvalidDataset, lr.lineNo+1, lr.maxLine)
	}
	lr.lineNo++
	return bytes.TrimSpace(line), nil
}

// readHeader consumes lines until the first non-blank one and parses it as
// the schema header. An empty body (no header at all) is rejected: there is
// nothing to register.
func readHeader(lr *lineReader) (*dataset.Schema, error) {
	for {
		line, err := lr.next()
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
			return nil, fmt.Errorf("%w: line %d: bad schema header: %v", ErrInvalidDataset, lr.lineNo, err)
		}
		if len(hdr.Schema) == 0 {
			return nil, fmt.Errorf("%w: line %d: schema header names no attributes", ErrInvalidDataset, lr.lineNo)
		}
		attrs := make([]dataset.Attribute, len(hdr.Schema))
		for i, a := range hdr.Schema {
			attrs[i] = dataset.Attribute{Name: a.Name, Cardinality: a.Cardinality}
		}
		schema, err := dataset.NewSchema(attrs)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, lr.lineNo, err)
		}
		if err := CheckDim(schema); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, lr.lineNo, err)
		}
		return schema, nil
	}
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

package store

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vector"
)

// This file keeps the ingest pipeline the serial loop replaced, as its
// oracle: a reader sized to the line limit feeds batches of lines over a
// channel to a pool of decode workers, each pre-aggregating its batch in a
// local map and merging it into a mutex/atomic accumulator.

const (
	poolBatchRows  = 256
	poolBatchBytes = 64 << 10
	poolBatchQueue = 4
)

// poolBatch is a copied slice of raw lines plus their 1-based line numbers.
type poolBatch struct {
	buf   []byte
	offs  []int32
	lines []int64
}

// poolAccumulator merges per-batch maps into one map of distinct cells
// under a mutex, switching once to int64 counter shards with atomic adds
// when the distinct cells pass one in vector.SparseRatio.
type poolAccumulator struct {
	n      int
	dense  atomic.Bool
	mu     sync.Mutex
	cells  map[int]int64
	blocks [][]int64
}

func (a *poolAccumulator) merge(local map[int]int64) {
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

func (a *poolAccumulator) densify() {
	for lo := 0; lo < a.n; lo += accumBlockLen {
		a.blocks = append(a.blocks, make([]int64, min(accumBlockLen, a.n-lo)))
	}
	for idx, c := range a.cells {
		a.blocks[idx/accumBlockLen][idx%accumBlockLen] = c
	}
	a.cells = nil
	a.dense.Store(true)
}

func (a *poolAccumulator) vector() *vector.Blocked {
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
		panic(err)
	}
	return bv
}

// ingestPool is the worker-pool ingest: workers = 0 means all CPUs.
func ingestPool(ctx context.Context, r io.Reader, workers, maxLine int) (*dataset.Schema, *vector.Blocked, int64, error) {
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The reader's buffer is one byte longer than the line limit, so a
	// full buffer is an over-long line.
	lr := &lineReader{br: bufio.NewReaderSize(r, max(maxLine+1, 64)), maxLine: maxLine}
	schema, err := readHeader(lr)
	if err != nil {
		return nil, nil, 0, err
	}
	br, lineNo := lr.br, lr.lineNo

	counts := &poolAccumulator{n: schema.DomainSize(), cells: make(map[int]int64)}
	var rows atomic.Int64
	work := make(chan poolBatch, poolBatchQueue)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
	)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make(map[int]int64, poolBatchRows)
			tuple := make([]int, len(schema.Attrs))
			for b := range work {
				if failed.Load() || ctx.Err() != nil {
					continue
				}
				clear(local)
				err := func() error {
					for i := range b.lines {
						line := b.buf[b.offs[i]:b.offs[i+1]]
						if err := decodeTuple(line, tuple); err != nil {
							return fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, b.lines[i], err)
						}
						idx, err := schema.Encode(tuple)
						if err != nil {
							return fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, b.lines[i], err)
						}
						local[idx]++
					}
					return nil
				}()
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					continue
				}
				counts.merge(local)
				rows.Add(int64(len(b.lines)))
			}
		}()
	}

	feedErr := func() error {
		cur := poolBatch{offs: []int32{0}}
		flush := func() bool {
			if len(cur.lines) == 0 {
				return true
			}
			select {
			case work <- cur:
			case <-ctx.Done():
				return false
			}
			cur = poolBatch{offs: []int32{0}}
			return true
		}
		for {
			if failed.Load() || ctx.Err() != nil {
				return nil
			}
			line, err := poolReadLine(br, &lineNo, maxLine)
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
			cur.lines = append(cur.lines, lineNo)
			if len(cur.lines) >= poolBatchRows || len(cur.buf) >= poolBatchBytes {
				if !flush() {
					return nil
				}
			}
		}
	}()
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

// poolReadLine reads one line through the pool's reader.
func poolReadLine(br *bufio.Reader, lineNo *int64, maxLine int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch err {
	case nil:
	case bufio.ErrBufferFull:
		return nil, fmt.Errorf("%w: line %d exceeds the %d-byte line limit", ErrInvalidDataset, *lineNo+1, maxLine)
	case io.EOF:
		if len(line) == 0 {
			return nil, io.EOF
		}
	default:
		return nil, fmt.Errorf("%w: line %d: %v", ErrInvalidDataset, *lineNo+1, err)
	}
	*lineNo++
	return bytes.TrimSpace(line), nil
}

// sameCounts reports whether two count vectors hold the same form and the
// same cells, bit for bit, without gathering either.
func sameCounts(a, b *vector.Blocked) bool {
	ac, av, as := vector.Sparse(a)
	bc, bv, bs := vector.Sparse(b)
	if a.Len() != b.Len() || as != bs {
		return false
	}
	if as {
		return slices.Equal(ac, bc) && slices.EqualFunc(av, bv, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
	}
	if a.Blocks() != b.Blocks() {
		return false
	}
	for i := 0; i < a.Blocks(); i++ {
		if !slices.EqualFunc(a.Block(i), b.Block(i), func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			return false
		}
	}
	return true
}

// checkAgainstPool ingests body through the serial loop and the pool
// oracle at the given worker count and fails t unless both accept with
// the same schema, row count and counts, or both refuse.
func checkAgainstPool(t testing.TB, body []byte, workers int, opts IngestOptions) {
	t.Helper()
	ctx := context.Background()
	sc, got, rows, err := ingestNDJSON(ctx, bytes.NewReader(body), opts)
	osc, want, orows, oerr := ingestPool(ctx, bytes.NewReader(body), workers, opts.MaxLineBytes)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("workers=%d: serial error %v, pool error %v", workers, err, oerr)
	}
	if err != nil {
		return
	}
	if !sc.Equal(osc) || rows != orows || !sameCounts(got, want) {
		t.Fatalf("workers=%d: serial gave %d rows, pool %d; counts equal: %v", workers, rows, orows, sameCounts(got, want))
	}
}

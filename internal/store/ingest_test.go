package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func testSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema([]dataset.Attribute{
		{Name: "color", Cardinality: 3},
		{Name: "size", Cardinality: 2},
		{Name: "grade", Cardinality: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const testHeader = `{"schema":[{"name":"color","cardinality":3},{"name":"size","cardinality":2},{"name":"grade","cardinality":4}]}`

func testRows(n int) [][]int {
	rows := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []int{i % 3, (i / 3) % 2, (i / 7) % 4})
	}
	return rows
}

func ndjsonBody(rows [][]int) string {
	var b strings.Builder
	b.WriteString(testHeader)
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "[%d,%d,%d]\n", r[0], r[1], r[2])
	}
	return b.String()
}

func memStore(t testing.TB) *Store {
	t.Helper()
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIngestMatchesTableVector: the streamed aggregate must be
// bit-identical to dataset.Table.Vector over the same rows, and to the
// worker-pool oracle at every worker count — the property the
// bit-identical-release acceptance criterion rests on.
func TestIngestMatchesTableVector(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(3))
	rows := make([][]int, 2000)
	for i := range rows {
		rows[i] = []int{rng.Intn(3), rng.Intn(2), rng.Intn(4)}
	}
	want, err := (&dataset.Table{Schema: schema, Rows: rows}).Vector()
	if err != nil {
		t.Fatal(err)
	}
	s := memStore(t)
	info, err := s.IngestNDJSON(context.Background(), "d", strings.NewReader(ndjsonBody(rows)), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != int64(len(rows)) || info.Cells != schema.DomainSize() {
		t.Fatalf("info %+v", info)
	}
	h, err := s.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	got := DenseCounts(h)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: ingested %v, Vector %v", i, got[i], want[i])
		}
	}
	h.Close()
	for _, workers := range []int{1, 2, 4, 9} {
		checkAgainstPool(t, []byte(ndjsonBody(rows)), workers, IngestOptions{})
	}
}

// ingestEdgeCases are malformed streams, each with a substring of the
// error it must produce; FuzzIngestNDJSON seeds its corpus from them.
var ingestEdgeCases = []struct {
	name string
	body string
	opts IngestOptions
	want string // substring of the error
}{
	{name: "empty body", body: "", want: "empty body"},
	{name: "blank lines only", body: "\n\n  \n", want: "empty body"},
	{name: "missing header", body: "[0,1,2]\n", want: "schema header"},
	{name: "header names no attributes", body: `{"schema":[]}` + "\n", want: "no attributes"},
	{name: "bad header cardinality", body: `{"schema":[{"name":"a","cardinality":0}]}` + "\n", want: "cardinality"},
	{name: "schema wider than MaxDim", body: `{"schema":[{"name":"a","cardinality":33554432}]}` + "\n", want: "domain limit"},
	{name: "truncated final line", body: testHeader + "\n[0,1,2]\n[1,0", want: "line 3"},
	{name: "out-of-range value mid-stream", body: testHeader + "\n[0,1,2]\n[0,1,9]\n[1,0,0]\n", want: "out of range"},
	{name: "negative value", body: testHeader + "\n[-1,0,0]\n", want: "out of range"},
	{name: "wrong arity", body: testHeader + "\n[0,1]\n", want: "2 values"},
	{name: "fractional value", body: testHeader + "\n[0.5,1,2]\n", want: "value 0"},
	{name: "not an array", body: testHeader + "\n{\"color\":0}\n", want: "JSON array"},
	{name: "trailing garbage", body: testHeader + "\n[0,1,2] [0,1,2]\n", want: "trailing"},
	{
		name: "oversized line",
		body: testHeader + "\n[0, 1,                                                              2]\n",
		opts: IngestOptions{MaxLineBytes: 16},
		want: "line limit",
	},
}

// TestIngestEdgeCases: every malformed stream is rejected with
// ErrInvalidDataset and registers nothing — a partial dataset can never be
// released from.
func TestIngestEdgeCases(t *testing.T) {
	for _, tc := range ingestEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			s := memStore(t)
			_, err := s.IngestNDJSON(context.Background(), "d", strings.NewReader(tc.body), tc.opts)
			if err == nil {
				t.Fatalf("ingest accepted %q", tc.body)
			}
			if !errors.Is(err, ErrInvalidDataset) {
				t.Fatalf("error %v is not ErrInvalidDataset", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, err := s.Get("d"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("rejected ingest registered a dataset: %v", err)
			}
		})
	}
}

// TestIngestTolerantTail: a final valid row without a trailing newline and
// interior blank lines are fine — only truncated or malformed JSON rejects.
func TestIngestTolerantTail(t *testing.T) {
	s := memStore(t)
	body := testHeader + "\n[0,1,2]\n\n[1,0,3]" // no trailing newline
	info, err := s.IngestNDJSON(context.Background(), "d", strings.NewReader(body), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 2 {
		t.Fatalf("want 2 rows, got %d", info.Rows)
	}
}

// TestIngestHeaderOnly: a header with no rows registers an all-zero
// contingency vector (a legal, if boring, dataset).
func TestIngestHeaderOnly(t *testing.T) {
	s := memStore(t)
	info, err := s.IngestNDJSON(context.Background(), "d", strings.NewReader(testHeader+"\n"), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 0 {
		t.Fatalf("want 0 rows, got %d", info.Rows)
	}
}

// TestIngestRejectsBadID: ids double as snapshot file names, so the
// alphabet is strict.
func TestIngestRejectsBadID(t *testing.T) {
	s := memStore(t)
	for _, id := range []string{"", ".hidden", "a/b", "a b", strings.Repeat("x", 129)} {
		if _, err := s.IngestNDJSON(context.Background(), id, strings.NewReader(ndjsonBody(testRows(1))), IngestOptions{}); !errors.Is(err, ErrInvalidDataset) {
			t.Fatalf("id %q: want ErrInvalidDataset, got %v", id, err)
		}
	}
}

// TestIngestCancelled: a cancelled context aborts the stream with the
// context error (the serving layer maps it to 499, not 400).
func TestIngestCancelled(t *testing.T) {
	s := memStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.IngestNDJSON(ctx, "d", strings.NewReader(ndjsonBody(testRows(5000))), IngestOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestConcurrentPutDeleteRelease hammers one dataset id with concurrent
// ingests, deletes and reads under -race: handles acquired before a delete
// or replacement must keep serving their version's counts.
func TestConcurrentPutDeleteRelease(t *testing.T) {
	s := memStore(t)
	body := ndjsonBody(testRows(200))
	if _, err := s.IngestNDJSON(context.Background(), "d", strings.NewReader(body), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch g {
				case 0:
					if _, err := s.IngestNDJSON(context.Background(), "d", strings.NewReader(body), IngestOptions{}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := s.Delete("d"); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
						return
					}
				default:
					h, err := s.Get("d")
					if errors.Is(err, ErrNotFound) {
						continue // deleted this instant; fine
					}
					if err != nil {
						t.Error(err)
						return
					}
					// A handle's view must be a complete, immutable
					// aggregate regardless of what PUT/DELETE do next.
					total := 0.0
					for _, c := range DenseCounts(h) {
						total += c
					}
					if total != 200 {
						t.Errorf("handle read a torn dataset: total %v", total)
					}
					h.Close()
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkIngestNDJSON is the ingestion-throughput baseline the CI smoke
// step runs: rows ingested per second through the full streaming path.
func BenchmarkIngestNDJSON(b *testing.B) {
	body := ndjsonBody(testRows(20000))
	s, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.IngestNDJSON(context.Background(), "bench", strings.NewReader(body), IngestOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIngestLineBudget pins the line limit: a line of exactly
// MaxLineBytes bytes (its newline not counted) is accepted and one byte
// more is refused, at the default limit and at limits on both sides of
// the reader's buffer, whether the line ends in "\n", "\r\n" or the end of
// the stream — as the worker-pool oracle decides. A valid row padded to
// 200 KiB is accepted under the default limit.
func TestIngestLineBudget(t *testing.T) {
	padded := "[0," + strings.Repeat(" ", 200<<10) + "1,2]"
	s := memStore(t)
	info, err := s.IngestNDJSON(context.Background(), "d", strings.NewReader(testHeader+"\n"+padded+"\n[0,1,2]\n"), IngestOptions{})
	if err != nil || info.Rows != 2 || info.StoredCells != 1 {
		t.Fatalf("padded row: %+v, %v", info, err)
	}
	for _, limit := range []int{256, readBufBytes - 1, readBufBytes, readBufBytes + 1, 200 << 10, DefaultMaxLineBytes} {
		opts := IngestOptions{MaxLineBytes: limit}
		if limit == DefaultMaxLineBytes {
			opts = IngestOptions{}
		}
		for _, size := range []int{limit - 1, limit, limit + 1} {
			for _, end := range []string{"\n", "\r\n", ""} {
				// The line's bytes are the row, its padding and any "\r".
				row := "[2,1,3]" + strings.Repeat(" ", size-len("[2,1,3]")-strings.Count(end, "\r"))
				body := testHeader + "\n[0,0,0]\n" + row + end
				_, _, rows, err := ingestNDJSON(context.Background(), strings.NewReader(body), opts)
				if accept := size <= limit; (err == nil) != accept || (accept && rows != 2) {
					t.Fatalf("limit %d, %d-byte line ending %q: %d rows, error %v", limit, size, end, rows, err)
				}
				if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("line 3 exceeds the %d-byte line limit", limit)) {
					t.Fatalf("limit %d: error %v", limit, err)
				}
				checkAgainstPool(t, []byte(body), 2, opts)
			}
		}
	}
}

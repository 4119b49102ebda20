package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// FuzzIngestNDJSON feeds arbitrary bytes to both NDJSON decoders. The
// properties: no panic; the serial loop accepts exactly what the
// worker-pool oracle accepts, with the same schema, row count and counts
// bit for bit; a rejected ingest registers nothing; a rejected
// append leaves the resident dataset's Info (rows, fingerprint, version)
// unchanged; an accepted append onto a sparse dataset (2 of 32 cells, the
// crossover) equals one upload of both streams, whichever form either
// lands in. Inputs are not filtered by schema size — MaxDim bounds what a
// header can make ingest allocate.
func FuzzIngestNDJSON(f *testing.F) {
	f.Add([]byte(ndjsonBody(testRows(20))))
	f.Add([]byte(testHeader + "\n"))
	f.Add([]byte(testHeader + "\n[0,1,2]\n\n[1,0,3]"))
	// Sparse bodies: 1 and 2 distinct cells of 32 stay sparse, 3 cross.
	f.Add([]byte(testHeader + "\n[2,1,3]\n[2,1,3]\n"))
	f.Add([]byte(testHeader + "\n[0,0,0]\n[2,1,3]\n"))
	f.Add([]byte(testHeader + "\n[0,0,0]\n[2,1,3]\n[1,1,1]\n"))
	for _, tc := range ingestEdgeCases {
		f.Add([]byte(tc.body))
	}
	resident := ndjsonBody(testRows(50))
	sparseResident := testHeader + "\n[0,0,0]\n[0,0,0]\n"
	f.Fuzz(func(t *testing.T, body []byte) {
		ctx := context.Background()
		opts := IngestOptions{}
		checkAgainstPool(t, body, 2, opts)
		s, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.IngestNDJSON(ctx, "fresh", bytes.NewReader(body), opts); err != nil {
			if _, gerr := s.Get("fresh"); !errors.Is(gerr, ErrNotFound) {
				t.Fatalf("rejected ingest (%v) registered a dataset: %v", err, gerr)
			}
			if n := s.Stats().Datasets; n != 0 {
				t.Fatalf("rejected ingest (%v) left %d datasets resident", err, n)
			}
		}

		before, err := s.IngestNDJSON(ctx, "base", strings.NewReader(resident), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendNDJSON(ctx, "base", bytes.NewReader(body), opts); err != nil {
			after, derr := s.Describe("base")
			if derr != nil {
				t.Fatalf("rejected append (%v) lost the dataset: %v", err, derr)
			}
			if after.Rows != before.Rows || after.Fingerprint != before.Fingerprint || after.Version != before.Version {
				t.Fatalf("rejected append (%v) changed the dataset: before %+v, after %+v", err, before, after)
			}
		}

		if _, err := s.IngestNDJSON(ctx, "sparse", strings.NewReader(sparseResident), opts); err != nil {
			t.Fatal(err)
		}
		appended, err := s.AppendNDJSON(ctx, "sparse", bytes.NewReader(body), opts)
		if err != nil {
			return
		}
		// The append matched the schema, so body's first non-blank line is
		// the header: one upload of the resident rows plus the rest must
		// give the same dataset.
		lines := strings.SplitAfter(string(body), "\n")
		for len(strings.TrimSpace(lines[0])) == 0 {
			lines = lines[1:]
		}
		combined, err := s.IngestNDJSON(ctx, "combined", strings.NewReader(sparseResident+strings.Join(lines[1:], "")), opts)
		if err != nil {
			t.Fatalf("append accepted, combined upload rejected: %v", err)
		}
		if appended.Rows != combined.Rows || appended.Fingerprint != combined.Fingerprint || appended.StoredCells != combined.StoredCells {
			t.Fatalf("append gave %+v, one upload %+v", appended, combined)
		}
	})
}

// scanSchemas are the layouts FuzzScanRow checks the fast path under: a
// binary one, padded Adult (cardinalities that are not powers of two), a
// single attribute and a 24-bit one whose values reach eight digits.
var scanSchemas = []*dataset.Schema{
	dataset.MustSchema([]dataset.Attribute{{Name: "a", Cardinality: 2}, {Name: "b", Cardinality: 2}, {Name: "c", Cardinality: 2}}),
	dataset.AdultSchema(),
	dataset.MustSchema([]dataset.Attribute{{Name: "only", Cardinality: 5}}),
	dataset.MustSchema([]dataset.Attribute{{Name: "wide", Cardinality: 1 << 20}, {Name: "rest", Cardinality: 11}}),
}

// FuzzScanRow: whenever the strict-form fast path accepts a line,
// decodeTuple plus Schema.Encode accept it too, with the same cell; and a
// row they accept that is already in strict form (printed back as
// [v,v,…]) is one the fast path accepts.
func FuzzScanRow(f *testing.F) {
	for _, line := range decodeCases {
		f.Add([]byte(line), uint8(0))
	}
	for _, line := range []string{"[0]", "[4]", "[5]", "[1048575,10]", "[1048576,0]", "[39,8,15,6,4,1,40,1]", "[99999999999999999999]"} {
		for k := range scanSchemas {
			f.Add([]byte(line), uint8(k))
		}
	}
	f.Fuzz(func(t *testing.T, line []byte, pick uint8) {
		schema := scanSchemas[int(pick)%len(scanSchemas)]
		fast, ok := scanRow(line, schema)
		tuple := make([]int, len(schema.Attrs))
		err := decodeTuple(line, tuple)
		slow := 0
		if err == nil {
			slow, err = schema.Encode(tuple)
		}
		if ok && (err != nil || slow != fast) {
			t.Fatalf("%q: fast path read cell %d, decodeTuple+Encode %d (%v)", line, fast, slow, err)
		}
		if err == nil && !ok && string(line) == strings.ReplaceAll(fmt.Sprint(tuple), " ", ",") {
			t.Fatalf("%q: strict-form row refused by the fast path", line)
		}
	})
}

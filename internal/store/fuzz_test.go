package store

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// FuzzIngestNDJSON feeds arbitrary bytes to both NDJSON decoders. The
// properties: no panic; a rejected ingest registers nothing; a rejected
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
		opts := IngestOptions{Workers: 2}
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

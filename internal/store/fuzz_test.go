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
// unchanged. Inputs are not filtered by schema size — MaxDim bounds what a
// header can make ingest allocate.
func FuzzIngestNDJSON(f *testing.F) {
	f.Add([]byte(ndjsonBody(testRows(20))))
	f.Add([]byte(testHeader + "\n"))
	f.Add([]byte(testHeader + "\n[0,1,2]\n\n[1,0,3]"))
	for _, tc := range ingestEdgeCases {
		f.Add([]byte(tc.body))
	}
	resident := ndjsonBody(testRows(50))
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
	})
}

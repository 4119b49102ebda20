package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// BenchmarkColdRelease times what a fresh daemon pays before its first
// releases, the cost every restart and upload repeats: a new server, the
// NDJSON uploads of NLTCS- and Adult-shaped data (Adult is held sparse),
// then one release each of Adult Fourier Q2, Adult cluster Q2 and NLTCS
// workload Q2, every one a miss of the plan cache and the answer memo.
// ns/op is the whole sequence; each step's mean is reported in ms.
func BenchmarkColdRelease(b *testing.B) {
	uploads := []struct{ id, body string }{
		{"nltcs", ndjsonBody(dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount))},
		{"adult", ndjsonBody(dataset.SyntheticAdult(2, dataset.AdultTupleCount))},
	}
	releases := []struct{ name, id, strategy string }{
		{"adult-fourier-q2", "adult", "fourier"},
		{"adult-cluster-q2", "adult", "cluster"},
		{"nltcs-workload-q2", "nltcs", "workload"},
	}
	bodies := make([][]byte, len(releases))
	for i, r := range releases {
		body, err := json.Marshal(map[string]any{
			"dataset_id": r.id, "strategy": r.strategy,
			"workload": map[string]any{"k": 2}, "epsilon": 1.0, "seed": 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	var upload time.Duration
	release := make([]time.Duration, len(releases))
	b.ReportAllocs()
	for b.Loop() {
		start := time.Now()
		s := newTestServer(b, Config{EpsilonCap: math.MaxFloat64, DeltaCap: 0.5})
		for _, u := range uploads {
			if rec := putDataset(b, s, u.id, u.body); rec.Code != http.StatusCreated {
				b.Fatalf("upload %s: %d %s", u.id, rec.Code, rec.Body.String())
			}
		}
		upload += time.Since(start)
		for i, body := range bodies {
			start := time.Now()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s: %d %s", releases[i].name, rec.Code, rec.Body.String())
			}
			release[i] += time.Since(start)
		}
	}
	perOp := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(perOp(upload), "upload-ms")
	for i, r := range releases {
		b.ReportMetric(perOp(release[i]), r.name+"-ms")
	}
}

// ndjsonBody is the NDJSON upload of a table: the schema header, then one
// [v,v,…] row per line.
func ndjsonBody(tab *dataset.Table) string {
	var sb strings.Builder
	hdr := make([]attributeJSON, len(tab.Schema.Attrs))
	for i, a := range tab.Schema.Attrs {
		hdr[i] = attributeJSON{Name: a.Name, Cardinality: a.Cardinality}
	}
	raw, err := json.Marshal(map[string]any{"schema": hdr})
	if err != nil {
		panic(err)
	}
	sb.Write(raw)
	sb.WriteByte('\n')
	for _, r := range tab.Rows {
		sb.WriteString(strings.ReplaceAll(fmt.Sprint(r), " ", ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

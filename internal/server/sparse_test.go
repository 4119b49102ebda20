package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro"
)

// TestSparseDatasetMatchesInlineCounts: a dataset the store holds sparse
// serves /v1/release under every strategy, /v1/cube and /v1/synthetic with
// the same bytes as the same counts sent inline, which the server holds
// dense.
func TestSparseDatasetMatchesInlineCounts(t *testing.T) {
	s := newTestServer(t, Config{EpsilonCap: 1e9, DeltaCap: 0.5, MaxWorkers: 2})
	schema := []map[string]any{
		{"name": "a", "cardinality": 5},
		{"name": "b", "cardinality": 3},
		{"name": "c", "cardinality": 7},
		{"name": "d", "cardinality": 6},
		{"name": "e", "cardinality": 2},
	}
	// 3+2+3+3+1 = 12 bits; 150 rows hit at most 150 < 4096/16 cells.
	rng := rand.New(rand.NewSource(12))
	counts := make([]float64, 1<<12)
	hdr, _ := json.Marshal(map[string]any{"schema": schema})
	var nd strings.Builder
	nd.Write(hdr)
	nd.WriteByte('\n')
	for range 150 {
		row := []int{rng.Intn(5), rng.Intn(3), rng.Intn(7), rng.Intn(6), rng.Intn(2)}
		counts[row[0]|row[1]<<3|row[2]<<5|row[3]<<8|row[4]<<11]++
		fmt.Fprintf(&nd, "[%d,%d,%d,%d,%d]\n", row[0], row[1], row[2], row[3], row[4])
	}
	rec := putDataset(t, s, "sparse", nd.String())
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body.String())
	}
	info := decode[struct {
		Cells       int `json:"cells"`
		StoredCells int `json:"stored_cells"`
	}](t, rec)
	if info.StoredCells*16 > info.Cells {
		t.Fatalf("dataset held dense: %+v", info)
	}
	scrape := do(t, s, http.MethodGet, "/v1/metrics?format=prometheus").Body.String()
	if want := fmt.Sprintf("\ndpcubed_dataset_resident_bytes %d\n", 12*info.StoredCells); !strings.Contains(scrape, want) {
		t.Fatalf("scrape lacks %q:\n%s", want, scrape)
	}

	for _, ep := range []struct {
		path      string
		overrides map[string]any
	}{
		{"/v1/release", map[string]any{"strategy": "fourier"}},
		{"/v1/release", map[string]any{"strategy": "workload"}},
		{"/v1/release", map[string]any{"strategy": "cluster", "uniform_budget": true}},
		{"/v1/release", map[string]any{"strategy": "identity"}},
		{"/v1/cube", map[string]any{"max_order": 2}},
		{"/v1/cube", map[string]any{"max_order": 2, "strategy": "cluster"}},
		{"/v1/synthetic", map[string]any{"synthetic_seed": int64(3)}},
	} {
		body := func() map[string]any {
			b := map[string]any{"workload": map[string]any{"k": 2}, "epsilon": 1.0, "seed": 7}
			for k, v := range ep.overrides {
				b[k] = v
			}
			return b
		}
		inline := body()
		inline["schema"], inline["counts"] = schema, counts
		byID := body()
		byID["dataset_id"] = "sparse"
		ra, rb := post(t, s, ep.path, inline), post(t, s, ep.path, byID)
		if ra.Code != http.StatusOK || rb.Code != http.StatusOK {
			t.Fatalf("%s %v: %d %s / %d %s", ep.path, ep.overrides, ra.Code, ra.Body.String(), rb.Code, rb.Body.String())
		}
		var a, b map[string]json.RawMessage
		if err := json.Unmarshal(ra.Body.Bytes(), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rb.Body.Bytes(), &b); err != nil {
			t.Fatal(err)
		}
		delete(a, "budget")
		delete(b, "budget")
		if len(a) != len(b) {
			t.Fatalf("%s %v: response shape differs", ep.path, ep.overrides)
		}
		for k := range a {
			if string(a[k]) != string(b[k]) {
				t.Fatalf("%s %v: field %q differs between inline counts and the sparse dataset", ep.path, ep.overrides, k)
			}
		}
	}
}

// TestSyntheticSampleBodyMatchesRows: a body written from sampled cells is
// byte for byte the json.Marshal of the same sample decoded into rows,
// for padded schemas, codes of two digits and the empty sample.
func TestSyntheticSampleBodyMatchesRows(t *testing.T) {
	schema, err := repro.NewSchema([]repro.Attribute{
		{Name: "a", Cardinality: 3}, {Name: "b", Cardinality: 12}, {Name: "c", Cardinality: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 500} {
		cells := make([]int32, 0, n)
		for len(cells) < n {
			if c := rng.Intn(schema.DomainSize()); schema.IsValid(c) {
				cells = append(cells, int32(c))
			}
		}
		rows := [][]int{}
		for _, c := range cells {
			rows = append(rows, schema.Decode(int(c)))
		}
		want, err := json.Marshal(syntheticBody{Strategy: "F+", Count: n, Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		b := syntheticBody{Strategy: "F+", Count: n, sample: cells, schema: schema}
		got, err := b.marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: sample body differs:\n got %.200s\nwant %.200s", n, got, want)
		}
		if cap(got) > len(got)+3*n+3 {
			t.Fatalf("n=%d: buffer sized %d for %d bytes", n, cap(got), len(got))
		}
	}
}

// Example server: the multi-tenant upload-once / release-many serving
// flow, in process. A dataset is ingested exactly once as streaming
// NDJSON; after that, two tenants — each authenticating with its own API
// key — release against it, each spending its own budget ledger under a
// still-binding global cap. The programmatic equivalent of
//
//	printf 'alice 0.75\nbob\n' > keys.txt
//	dpcubed -addr :8080 -epsilon-cap 2 -delta-cap 1e-6 -api-keys keys.txt -composition zcdp &
//	dpcube -ingest people.csv -server http://localhost:8080 -dataset people
//	curl -s -X POST -H 'X-API-Key: alice' localhost:8080/v1/release \
//	    -d '{"dataset_id":"people","workload":{"k":1},"epsilon":0.25,"seed":1}'
//	curl -s -H 'X-API-Key: alice' localhost:8080/v1/budget
//
// Repeating the exact same POST replays the identical bytes from the
// result cache without spending any further budget (free post-processing
// of the already-released output). To load-test that serving path — a
// hot set of repeated releases through the result cache against a live
// daemon built from this checkout — run the benchmark from the repository
// root:
//
//	bash perfbench/run.sh --workload dashboard-hot
//
// Run with: go run ./examples/server
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/server"
)

func main() {
	// One server = one dataset store + one plan cache + one budget-ledger
	// registry (a ledger per API key, plus the global ε=2 cap binding
	// across both tenants). zCDP accounting composes the small Gaussian
	// releases below far tighter than plain (ε, δ) summation would.
	srv, err := server.New(server.Config{
		EpsilonCap:  2,
		DeltaCap:    1e-6,
		Composition: "zcdp",
		APIKeys: []server.KeyConfig{
			{Key: "alice", EpsilonCap: 0.75, DeltaCap: 1e-6},
			{Key: "bob"}, // inherits the global caps
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv) // any http.Server works; httptest picks a free port
	defer ts.Close()

	// Upload once: the body streams as NDJSON — a schema header line, then
	// one JSON array per tuple. The daemon aggregates on the fly and never
	// buffers the rows; ingestion is free (no privacy spent), but like
	// every request it must authenticate.
	var nd strings.Builder
	nd.WriteString(`{"schema":[{"name":"age-band","cardinality":8},{"name":"smoker","cardinality":2}]}` + "\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&nd, "[%d,%d]\n", i%8, (i/3)%2)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/people", strings.NewReader(nd.String()))
	req.Header.Set("X-API-Key", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	show("PUT /v1/datasets/people (alice)", resp)

	// Release many: each tenant spends its own ledger over the stored
	// aggregate — no rows in any body. The same seed would reproduce a
	// rows-in-body release bit for bit.
	for _, call := range []struct{ key, body string }{
		{"alice", `{"dataset_id":"people","workload":{"k":1},"epsilon":0.25,"delta":1e-9,"seed":1}`},
		{"bob", `{"dataset_id":"people","workload":{"k":2},"epsilon":0.5,"delta":1e-9,"seed":2}`},
	} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/release", strings.NewReader(call.body))
		req.Header.Set("X-API-Key", call.key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		show("POST /v1/release ("+call.key+")", resp)
	}

	// Each tenant sees its own spend plus the global view; the metrics
	// endpoint breaks spend out per key next to cache and store counters.
	// Note the zCDP budget: both releases together report composed spend
	// at δ=1e-6, well under their summed ε.
	for _, path := range []string{"/v1/budget", "/v1/metrics"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("X-API-Key", "alice")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		show("GET "+path+" (alice)", resp)
	}

	// A missing or unknown key is a 401: tenancy is not optional once
	// keys are configured.
	resp, err = http.Get(ts.URL + "/v1/budget")
	if err != nil {
		log.Fatal(err)
	}
	show("GET /v1/budget (no key)", resp)

}

func show(what string, resp *http.Response) {
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fmt.Printf("%s → %s\n%s\n", what, resp.Status, body)
}

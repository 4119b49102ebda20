package server

import (
	"bytes"
	"encoding/json"
	"math"
	mathbits "math/bits"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/store"
)

// FuzzReleaseRequest posts arbitrary bodies to /v1/release on a capped
// server. Whatever the body, the handler must not panic, a 4xx must leave
// the ledger's spent ε and release count unchanged, and a 200 must charge
// exactly the request's ε once. Each input gets a fresh server, so the
// ledger starts empty. Inputs whose schema the server would accept at more
// than 14 bits are skipped: the inline path densifies the whole domain (up
// to 2^store.MaxDim cells), which would make the fuzzer measure
// allocation, not the decoder. Wider schemas are refused before any
// allocation and stay in.
func FuzzReleaseRequest(f *testing.F) {
	valid := `{"schema":[{"name":"a","cardinality":3},{"name":"b","cardinality":2}],` +
		`"rows":[[0,1],[2,0],[1,1]],"workload":{"k":1},"epsilon":0.5,"seed":7}`
	f.Add([]byte(valid))
	for _, extra := range []string{
		`"workers":2`, `"shards":3`, `"partition":"p0"`,
		`"epsilon":0.9`, `"epsilon":2`, `"Epsilon":0.25`,
		`"epsilon":1e308`, `"epsilon":5e-324`, `"seed":1e30`, `"seed":9223372036854775808`,
		`"delta":1e-320`, `"workload":{"k":100000000000000000000}`, `"strategy":"identity"`,
	} {
		f.Add([]byte(valid[:len(valid)-1] + "," + extra + "}"))
	}
	f.Add([]byte(`{"schema":[{"name":"a","cardinality":4}],"counts":[1,2,3,4],"workload":{"marginals":[[0]]},"epsilon":0.3,"seed":1}`))
	f.Add([]byte(`{"schema":[{"name":"a","cardinality":10000000000}],"rows":[[0]],"workload":{"k":1},"epsilon":0.5}`))
	f.Add([]byte(valid + `{"epsilon":0.7}`))
	f.Add([]byte(`{"dataset_id":"none","workload":{"k":1},"epsilon":0.5}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req struct {
			Schema  []attributeJSON `json:"schema"`
			Epsilon float64         `json:"epsilon"`
		}
		// The same first-value, last-key-wins decoding the handler does,
		// without its unknown-field check.
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		dim := 0
		for _, a := range req.Schema {
			if a.Cardinality > 1 {
				dim += mathbits.Len(uint(a.Cardinality - 1))
			}
		}
		if dim > 14 && dim <= store.MaxDim {
			t.Skip("domain too large for a fuzz iteration")
		}
		s, err := New(Config{EpsilonCap: 1, DeltaCap: 1e-3, MaxWorkers: 1, MaxBodyBytes: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(body)))
		after := s.budget()
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			if after.Releases != 0 || after.EpsilonSpent != 0 {
				t.Fatalf("%d answered after a charge (ε %v, %d releases): %s", rec.Code, after.EpsilonSpent, after.Releases, rec.Body.String())
			}
		case rec.Code == http.StatusOK:
			if !decoded {
				t.Fatalf("200 for a body the harness cannot decode: %q", body)
			}
			if after.Releases != 1 || math.Float64bits(after.EpsilonSpent) != math.Float64bits(req.Epsilon) {
				t.Fatalf("200 for ε = %v charged ε %v over %d releases", req.Epsilon, after.EpsilonSpent, after.Releases)
			}
		}
	})
}

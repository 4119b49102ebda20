package server

import (
	"fmt"
	"net/http"
	"testing"
)

// TestWireRefusesUncheckableFields: a request cannot buy parallel
// composition with a partition label the server cannot check, nor name the
// engine's worker or shard count. Each such field is refused with a 400
// before admission and charges nothing. Under an ε cap of 1, fifty
// whole-data ε = 0.9 releases labelled with distinct partitions all fail,
// and of fifty unlabelled ones exactly one is admitted.
func TestWireRefusesUncheckableFields(t *testing.T) {
	s := newTestServer(t, Config{EpsilonCap: 1, DeltaCap: 1e-3, MaxWorkers: 4})
	spent := func() budgetResponse {
		t.Helper()
		return decode[budgetResponse](t, do(t, s, http.MethodGet, "/v1/budget"))
	}

	for i := 0; i < 50; i++ {
		rec := post(t, s, "/v1/release", testBody(map[string]any{"epsilon": 0.9, "partition": fmt.Sprintf("p%d", i)}))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("partition p%d: %d %s, want 400", i, rec.Code, rec.Body.String())
		}
	}
	for _, path := range []string{"/v1/release", "/v1/cube", "/v1/synthetic"} {
		for _, field := range []string{"partition", "workers", "shards"} {
			var v any = 2
			if field == "partition" {
				v = "p0"
			}
			if rec := post(t, s, path, testBody(map[string]any{"epsilon": 0.9, field: v})); rec.Code != http.StatusBadRequest {
				t.Fatalf("%s with %q: %d %s, want 400", path, field, rec.Code, rec.Body.String())
			}
		}
	}
	if b := spent(); b.Releases != 0 || b.EpsilonSpent != 0 {
		t.Fatalf("refused requests were charged: %+v", b.budgetJSON)
	}

	admitted := 0
	for i := 0; i < 50; i++ {
		switch rec := post(t, s, "/v1/release", testBody(map[string]any{"epsilon": 0.9, "seed": i})); rec.Code {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("release %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if admitted != 1 {
		t.Fatalf("%d of 50 ε = 0.9 releases admitted under ε cap 1, want 1", admitted)
	}
	if b := spent(); b.Releases != 1 || b.EpsilonSpent != 0.9 {
		t.Fatalf("ledger after one admitted release: %+v", b.budgetJSON)
	}
}

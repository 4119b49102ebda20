package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// putDatasetMode is putDataset with an explicit ingest mode query.
func putDatasetMode(t testing.TB, s *Server, id, mode, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, "/v1/datasets/"+id+"?mode="+mode, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// datasetBody returns a release-shaped request body reading the named
// dataset instead of carrying inline rows.
func datasetBody(id string, overrides map[string]any) map[string]any {
	body := testBody(overrides)
	delete(body, "rows")
	delete(body, "schema")
	body["dataset_id"] = id
	return body
}

// TestResultCacheHitByteIdentical is the tentpole's bit-identity criterion:
// a repeated identical dataset-backed request must return the exact bytes
// of the miss that computed it — body, budget field and all.
func TestResultCacheHitByteIdentical(t *testing.T) {
	for _, path := range []string{"/v1/release", "/v1/cube", "/v1/synthetic"} {
		s := newTestServer(t, testConfig())
		if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
			t.Fatalf("%s: ingest: %d %s", path, rec.Code, rec.Body.String())
		}
		over := map[string]any{}
		if path == "/v1/cube" {
			over["max_order"] = 2
		}
		if path == "/v1/synthetic" {
			over["synthetic_seed"] = 11
		}
		first := post(t, s, path, datasetBody("d1", over))
		if first.Code != http.StatusOK {
			t.Fatalf("%s: miss: %d %s", path, first.Code, first.Body.String())
		}
		second := post(t, s, path, datasetBody("d1", over))
		if second.Code != http.StatusOK {
			t.Fatalf("%s: hit: %d %s", path, second.Code, second.Body.String())
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("%s: hit differs from miss:\n%s\nvs\n%s", path, first.Body.String(), second.Body.String())
		}
		st := s.results.Stats()
		if st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("%s: cache stats %+v, want 1 hit / 1 miss", path, st)
		}
	}
}

// TestResultCacheChargesOnce: N identical requests spend the budget of
// exactly one — a hit is free post-processing, never a recharge.
func TestResultCacheChargesOnce(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d", rec.Code)
	}
	for i := 0; i < 5; i++ {
		if rec := post(t, s, "/v1/release", datasetBody("d1", nil)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	b := decode[budgetResponse](t, do(t, s, http.MethodGet, "/v1/budget"))
	if b.EpsilonSpent != 1 || b.Releases != 1 {
		t.Fatalf("after 5 identical ε=1 requests: spent %v over %d releases, want 1 over 1",
			b.EpsilonSpent, b.Releases)
	}
}

// TestResultCacheKeySensitivity: any parameter that changes the output must
// change the key and recompute (and recharge).
func TestResultCacheKeySensitivity(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d", rec.Code)
	}
	post(t, s, "/v1/release", datasetBody("d1", nil))
	for name, over := range map[string]map[string]any{
		"seed":     {"seed": 8},
		"epsilon":  {"epsilon": 2.0},
		"workload": {"workload": map[string]any{"k": 2}},
		"strategy": {"strategy": "identity"},
		"uniform":  {"uniform_budget": true},
	} {
		before := s.results.Stats()
		if rec := post(t, s, "/v1/release", datasetBody("d1", over)); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, rec.Code, rec.Body.String())
		}
		after := s.results.Stats()
		if after.Misses != before.Misses+1 {
			t.Fatalf("%s: expected a cache miss (stats %+v -> %+v)", name, before, after)
		}
	}
}

// TestResultCacheInvalidation: replace, append and delete each drop the
// dataset's cached results — the repeat after a mutation recomputes against
// the new counts and charges again.
func TestResultCacheInvalidation(t *testing.T) {
	s := newTestServer(t, testConfig())
	nd := testNDJSON(t)
	if rec := putDataset(t, s, "d1", nd); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d", rec.Code)
	}
	body := datasetBody("d1", nil)
	miss := func(stage string) {
		before := s.results.Stats()
		if rec := post(t, s, "/v1/release", body); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", stage, rec.Code, rec.Body.String())
		}
		if after := s.results.Stats(); after.Misses != before.Misses+1 {
			t.Fatalf("%s: expected recompute, got stats %+v -> %+v", stage, before, after)
		}
	}
	hit := func(stage string) {
		before := s.results.Stats()
		if rec := post(t, s, "/v1/release", body); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", stage, rec.Code, rec.Body.String())
		}
		if after := s.results.Stats(); after.Hits != before.Hits+1 {
			t.Fatalf("%s: expected hit, got stats %+v -> %+v", stage, before, after)
		}
	}
	miss("initial")
	hit("repeat")
	if rec := putDataset(t, s, "d1", nd); rec.Code != http.StatusCreated {
		t.Fatalf("replace: %d", rec.Code)
	}
	miss("after replace")
	if rec := putDatasetMode(t, s, "d1", "append", nd); rec.Code != http.StatusCreated {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	miss("after append")
	hit("repeat after append")
	if rec := do(t, s, http.MethodDelete, "/v1/datasets/d1"); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec := post(t, s, "/v1/release", body); rec.Code != http.StatusNotFound {
		t.Fatalf("after delete: %d, want 404 (stale cache must not answer)", rec.Code)
	}
}

// TestResultCacheInlineRowsNotCached: inline-rows requests have no dataset
// version to key on and must charge every time.
func TestResultCacheInlineRowsNotCached(t *testing.T) {
	s := newTestServer(t, testConfig())
	for i := 0; i < 3; i++ {
		if rec := post(t, s, "/v1/release", testBody(nil)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
	}
	b := decode[budgetResponse](t, do(t, s, http.MethodGet, "/v1/budget"))
	if b.EpsilonSpent != 3 {
		t.Fatalf("3 inline requests spent %v, want 3", b.EpsilonSpent)
	}
	if st := s.results.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("inline rows landed in the result cache: %+v", st)
	}
}

// TestResultCacheDisabled: a negative size turns the cache off entirely.
func TestResultCacheDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.ResultCacheSize = -1
	s := newTestServer(t, cfg)
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d", rec.Code)
	}
	for i := 0; i < 2; i++ {
		if rec := post(t, s, "/v1/release", datasetBody("d1", nil)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
	}
	b := decode[budgetResponse](t, do(t, s, http.MethodGet, "/v1/budget"))
	if b.EpsilonSpent != 2 {
		t.Fatalf("disabled cache: spent %v over 2 requests, want 2", b.EpsilonSpent)
	}
	m := decode[metricsResponse](t, do(t, s, http.MethodGet, "/v1/metrics"))
	if m.ResultCache != nil {
		t.Fatalf("metrics advertise a disabled result cache: %+v", m.ResultCache)
	}
}

// TestResultCacheMetrics: /v1/metrics reports the hit/miss counters.
func TestResultCacheMetrics(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d", rec.Code)
	}
	post(t, s, "/v1/release", datasetBody("d1", nil))
	post(t, s, "/v1/release", datasetBody("d1", nil))
	m := decode[metricsResponse](t, do(t, s, http.MethodGet, "/v1/metrics"))
	if m.ResultCache == nil {
		t.Fatal("metrics missing result_cache")
	}
	if m.ResultCache.Hits != 1 || m.ResultCache.Misses != 1 || m.ResultCache.Entries != 1 {
		t.Fatalf("result_cache = %+v, want 1/1/1", m.ResultCache)
	}
}

// TestResultCacheConcurrent hammers identical and mutating traffic from
// many goroutines — meaningful under -race: the cache, the store hook and
// the charge path must be clean together.
func TestResultCacheConcurrent(t *testing.T) {
	cfg := testConfig()
	cfg.EpsilonCap = 1e9
	s := newTestServer(t, cfg)
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d", rec.Code)
	}
	nd := testNDJSON(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch {
				case g == 0 && i%3 == 2:
					putDataset(t, s, "d1", nd) // replace: invalidates
				case g%2 == 0:
					rec := post(t, s, "/v1/release", datasetBody("d1", nil))
					if rec.Code != http.StatusOK {
						t.Errorf("hot request: %d %s", rec.Code, rec.Body.String())
					}
				default:
					rec := post(t, s, "/v1/release", datasetBody("d1", map[string]any{"seed": g*100 + i}))
					if rec.Code != http.StatusOK {
						t.Errorf("unique request: %d %s", rec.Code, rec.Body.String())
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

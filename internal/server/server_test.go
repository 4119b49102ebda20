package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/dataset"
)

func testConfig() Config {
	return Config{EpsilonCap: 100, DeltaCap: 1e-3, MaxWorkers: 4}
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testBody builds a small 3-attribute request body as a JSON-ready map so
// individual tests can override fields.
func testBody(overrides map[string]any) map[string]any {
	rows := make([][]int, 0, 300)
	for i := 0; i < 300; i++ {
		rows = append(rows, []int{i % 3, (i / 3) % 2, (i / 7) % 4})
	}
	body := map[string]any{
		"schema": []map[string]any{
			{"name": "color", "cardinality": 3},
			{"name": "size", "cardinality": 2},
			{"name": "grade", "cardinality": 4},
		},
		"rows":     rows,
		"workload": map[string]any{"k": 1},
		"epsilon":  1.0,
		"seed":     7,
	}
	for k, v := range overrides {
		body[k] = v
	}
	return body
}

func post(t testing.TB, s *Server, path string, body map[string]any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t testing.TB, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, rec.Body.String())
	}
	return v
}

// TestReleaseEndpointMatchesDirectCall: a seeded request returns exactly
// the marginals repro.Release computes directly — the serving layer is a
// transport, not a different mechanism.
func TestReleaseEndpointMatchesDirectCall(t *testing.T) {
	s := newTestServer(t, testConfig())
	rec := post(t, s, "/v1/release", testBody(nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decode[releaseResponse](t, rec)

	schema := repro.MustSchema([]repro.Attribute{
		{Name: "color", Cardinality: 3},
		{Name: "size", Cardinality: 2},
		{Name: "grade", Cardinality: 4},
	})
	rows := make([][]int, 0, 300)
	for i := 0; i < 300; i++ {
		rows = append(rows, []int{i % 3, (i / 3) % 2, (i / 7) % 4})
	}
	tab := &repro.Table{Schema: schema, Rows: rows}
	want, err := repro.Release(tab, repro.AllKWayMarginals(schema, 1), repro.Options{Epsilon: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != len(want.Tables) {
		t.Fatalf("%d tables, want %d", len(got.Tables), len(want.Tables))
	}
	for i, wt := range want.Tables {
		for c := range wt.Cells {
			if math.Float64bits(got.Tables[i].Cells[c]) != math.Float64bits(wt.Cells[c]) {
				t.Fatalf("table %d cell %d: served %v, direct %v", i, c, got.Tables[i].Cells[c], wt.Cells[c])
			}
		}
	}
	if got.Strategy != want.Strategy {
		t.Fatalf("strategy %q, want %q", got.Strategy, want.Strategy)
	}
	if got.Budget.EpsilonSpent != 1 {
		t.Fatalf("budget after one ε=1 release: %+v", got.Budget)
	}
}

// TestReleaseDeterminism: same seed + same request body ⇒ bit-identical
// JSON, across repeated calls (which exercise the Releaser registry and the
// warmed plan cache paths).
func TestReleaseDeterminism(t *testing.T) {
	s := newTestServer(t, testConfig())
	first := post(t, s, "/v1/release", testBody(nil))
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.String())
	}
	ref := decode[releaseResponse](t, first)
	for trial := 0; trial < 3; trial++ {
		rec := post(t, s, "/v1/release", testBody(nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("trial %d: status %d", trial, rec.Code)
		}
		got := decode[releaseResponse](t, rec)
		// Tables must be bit-identical; the budget block legitimately
		// advances between calls.
		a, _ := json.Marshal(ref.Tables)
		b, _ := json.Marshal(got.Tables)
		if !bytes.Equal(a, b) {
			t.Fatalf("trial %d: served tables differ for identical seeded requests", trial)
		}
	}
	if st := s.CacheStats(); st.Misses != 1 || st.Hits < 1 {
		t.Fatalf("repeated identical requests should share one plan: %+v", st)
	}
}

// TestCubeEndpoint: round trip, cuboid count and apex sanity.
func TestCubeEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig())
	rec := post(t, s, "/v1/cube", testBody(map[string]any{"max_order": 2, "epsilon": 2.0}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decode[cubeResponse](t, rec)
	// 3 attributes, order ≤ 2: 1 apex + 3 singles + 3 pairs.
	if len(got.Cuboids) != 7 {
		t.Fatalf("%d cuboids, want 7", len(got.Cuboids))
	}
	if len(got.Cuboids[0].Attrs) != 0 || len(got.Cuboids[0].Cells) != 1 {
		t.Fatalf("first cuboid should be the apex: %+v", got.Cuboids[0])
	}
	if math.Abs(got.Cuboids[0].Cells[0]-300) > 60 {
		t.Fatalf("apex %v far from the true total 300", got.Cuboids[0].Cells[0])
	}
	if got.Budget.EpsilonSpent != 2 {
		t.Fatalf("cube must charge the shared ledger: %+v", got.Budget)
	}
}

// TestSyntheticEndpoint: round trip; rows decode under the schema; the
// sampling step is free post-processing (one release charged, not two).
func TestSyntheticEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig())
	rec := post(t, s, "/v1/synthetic", testBody(map[string]any{
		"epsilon": 2.0, "synthetic_seed": 11,
		"workload": map[string]any{"k": 2},
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decode[syntheticResponse](t, rec)
	if got.Count == 0 || len(got.Rows) != got.Count {
		t.Fatalf("bad synthetic rows: count=%d len=%d", got.Count, len(got.Rows))
	}
	for _, row := range got.Rows {
		if len(row) != 3 || row[0] < 0 || row[0] >= 3 || row[1] < 0 || row[1] >= 2 || row[2] < 0 || row[2] >= 4 {
			t.Fatalf("synthetic row %v outside schema domain", row)
		}
	}
	if got.Budget.EpsilonSpent != 2 || got.Budget.Releases != 1 {
		t.Fatalf("synthetic endpoint must charge exactly one release: %+v", got.Budget)
	}
}

// TestSyntheticBodyMatchesJSONMarshal: the hand-written synthetic encoder
// emits exactly the bytes encoding/json does, for empty and nil rows and
// samples, negative and extreme ints and a strategy name json escapes.
func TestSyntheticBodyMatchesJSONMarshal(t *testing.T) {
	big := make([][]int, 500)
	for i := range big {
		big[i] = []int{i, i % 7, -i, i * 1000003}
	}
	for _, b := range []syntheticBody{
		{Strategy: "F", Count: 0, Rows: [][]int{}},
		{Strategy: "F", Count: 0, Rows: nil},
		{Strategy: "C+", Count: 3, Rows: [][]int{{}, {0}, {}}},
		{Strategy: "I", Count: 2, Rows: [][]int{nil, {1, 2}}},
		{Strategy: "<&>\"\\\u00fc\u2028", Count: -1, Rows: [][]int{{math.MaxInt, math.MinInt, 0, -1, 9, 10, 99, 100}}},
		{Strategy: "Q", Count: len(big), Rows: big},
	} {
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("synthetic body differs:\n got %.200s\nwant %.200s", got, want)
		}
		// Sized up front: at most "null" for "[]" and one spare comma per
		// row and for the sample, never an append's doubling.
		if cap(got) > len(got)+3*len(b.Rows)+3 {
			t.Fatalf("buffer sized %d for %d bytes", cap(got), len(got))
		}
	}
}

// TestBudgetEndpointAndExhaustion: GET /v1/budget tracks cumulative spend,
// and a request past the cap is refused with 429 without running.
func TestBudgetEndpointAndExhaustion(t *testing.T) {
	s := newTestServer(t, Config{EpsilonCap: 1.0, MaxWorkers: 2})

	budgetOf := func() budgetJSON {
		req := httptest.NewRequest(http.MethodGet, "/v1/budget", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("budget status %d", rec.Code)
		}
		return decode[budgetJSON](t, rec)
	}

	if b := budgetOf(); b.EpsilonSpent != 0 || b.EpsilonCap != 1.0 {
		t.Fatalf("fresh budget: %+v", b)
	}
	if rec := post(t, s, "/v1/release", testBody(map[string]any{"epsilon": 0.7})); rec.Code != http.StatusOK {
		t.Fatalf("first release: %d %s", rec.Code, rec.Body.String())
	}
	if b := budgetOf(); math.Abs(b.EpsilonSpent-0.7) > 1e-12 || b.Releases != 1 {
		t.Fatalf("after ε=0.7: %+v", b)
	}
	rec := post(t, s, "/v1/release", testBody(map[string]any{"epsilon": 0.7, "seed": 8}))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap release: status %d, want 429; body %s", rec.Code, rec.Body.String())
	}
	if b := budgetOf(); math.Abs(b.EpsilonSpent-0.7) > 1e-12 {
		t.Fatalf("refused release changed spend: %+v", b)
	}
	// The remaining budget still serves.
	if rec := post(t, s, "/v1/release", testBody(map[string]any{"epsilon": 0.3, "seed": 9})); rec.Code != http.StatusOK {
		t.Fatalf("remaining budget refused: %d", rec.Code)
	}
	// Exhaustion also guards the cube and synthetic endpoints.
	if rec := post(t, s, "/v1/cube", testBody(map[string]any{"max_order": 1, "epsilon": 0.5})); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("cube past cap: status %d", rec.Code)
	}
	if rec := post(t, s, "/v1/synthetic", testBody(map[string]any{"epsilon": 0.5})); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("synthetic past cap: status %d", rec.Code)
	}
}

// TestErrorStatusMapping: typed validation errors surface as 400s with a
// JSON error body.
func TestErrorStatusMapping(t *testing.T) {
	s := newTestServer(t, testConfig())
	cases := []struct {
		name string
		path string
		body map[string]any
		want int
	}{
		{"zero epsilon", "/v1/release", testBody(map[string]any{"epsilon": 0.0}), http.StatusBadRequest},
		{"bad delta", "/v1/release", testBody(map[string]any{"delta": 1.5}), http.StatusBadRequest},
		{"empty schema", "/v1/release", testBody(map[string]any{"schema": []map[string]any{}}), http.StatusBadRequest},
		{"no workload", "/v1/release", testBody(map[string]any{"workload": map[string]any{}}), http.StatusBadRequest},
		{"bad marginal attr", "/v1/release", testBody(map[string]any{"workload": map[string]any{"marginals": [][]int{{9}}}}), http.StatusBadRequest},
		{"row outside domain", "/v1/release", testBody(map[string]any{"rows": [][]int{{5, 0, 0}}}), http.StatusBadRequest},
		{"both rows and counts", "/v1/release", testBody(map[string]any{"counts": make([]float64, 32)}), http.StatusBadRequest},
		{"short counts", "/v1/release", func() map[string]any {
			b := testBody(map[string]any{"counts": make([]float64, 4)})
			delete(b, "rows")
			return b
		}(), http.StatusBadRequest},
		{"cube without max_order", "/v1/cube", testBody(nil), http.StatusBadRequest},
		{"unknown strategy", "/v1/release", testBody(map[string]any{"strategy": "clsuter"}), http.StatusBadRequest},
		{"unknown cube strategy", "/v1/cube", testBody(map[string]any{"max_order": 1, "strategy": "foo"}), http.StatusBadRequest},
		{"delta above server cap", "/v1/release", testBody(map[string]any{"delta": 0.5}), http.StatusBadRequest},
		{"empty marginal list", "/v1/release", testBody(map[string]any{"workload": map[string]any{"marginals": [][]int{}}}), http.StatusBadRequest},
		{"cube row outside domain", "/v1/cube", testBody(map[string]any{"max_order": 1, "rows": [][]int{{5, 0, 0}}}), http.StatusBadRequest},
		{"synthetic without consistency", "/v1/synthetic", testBody(map[string]any{"skip_consistency": true}), http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := post(t, s, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		if e := decode[errorResponse](t, rec); e.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
	// Unknown fields are rejected, catching client typos before they spend
	// budget.
	if rec := post(t, s, "/v1/release", testBody(map[string]any{"epsilonn": 1})); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", rec.Code)
	}
	// None of the rejected requests above may have burned budget: a 4xx is
	// always free.
	if b := s.budget(); b.EpsilonSpent != 0 || b.Releases != 0 {
		t.Fatalf("rejected requests burned budget: %+v", b)
	}
}

// TestReleaserRegistryBounded: the registry evicts FIFO at its cap instead
// of growing without bound from client-controlled keys; evicted keys still
// serve correctly (re-registered, plan re-used from the LRU cache).
func TestReleaserRegistryBounded(t *testing.T) {
	cfg := testConfig()
	cfg.MaxReleasers = 2
	s := newTestServer(t, cfg)
	for i := 0; i < 5; i++ {
		body := testBody(map[string]any{"epsilon": 0.1, "workload": map[string]any{"marginals": [][]int{{i % 3}}}})
		if rec := post(t, s, "/v1/release", body); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	s.mu.Lock()
	n, order := len(s.releasers), len(s.order)
	s.mu.Unlock()
	if n > 2 || order != n {
		t.Fatalf("registry holds %d entries (order %d), capped at 2", n, order)
	}
}

// TestCancelledRequestAborts: a request whose context is already cancelled
// never reaches the mechanism — 499, nothing charged. (In production the
// same path triggers when the client disconnects mid-release; the ledger
// admission happens first, so an in-flight abort still counts as spent.)
func TestCancelledRequestAborts(t *testing.T) {
	s := newTestServer(t, testConfig())
	raw, err := json.Marshal(testBody(nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled request: status %d, want %d (body %s)", rec.Code, statusClientClosedRequest, rec.Body.String())
	}
}

// TestConcurrentRequestsSharePlanCache: many goroutines hammer one server
// (run under -race in CI); all succeed, the released tables agree for equal
// seeds, and planning happened exactly once.
func TestConcurrentRequestsSharePlanCache(t *testing.T) {
	s := newTestServer(t, testConfig())
	const n = 16
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Two seed classes: equal seeds must agree bit-for-bit.
			recs[i] = post(t, s, "/v1/release", testBody(map[string]any{"seed": i % 2, "epsilon": 0.25}))
		}(i)
	}
	wg.Wait()
	var bySeed [2][]byte
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		got := decode[releaseResponse](t, rec)
		tabs, _ := json.Marshal(got.Tables)
		if bySeed[i%2] == nil {
			bySeed[i%2] = tabs
		} else if !bytes.Equal(bySeed[i%2], tabs) {
			t.Fatalf("request %d: same-seed responses differ under concurrency", i)
		}
	}
	if st := s.CacheStats(); st.Misses != 1 {
		t.Fatalf("concurrent identical workloads should plan once: %+v", st)
	}
	if b := s.budget(); math.Abs(b.EpsilonSpent-n*0.25) > 1e-9 {
		t.Fatalf("ledger lost concurrent charges: %+v", b)
	}
}

// TestReleaserKeyNoCollision: length-prefixed attribute names keep crafted
// schemas from aliasing onto one registered Releaser.
func TestReleaserKeyNoCollision(t *testing.T) {
	trickySchema := repro.MustSchema([]repro.Attribute{{Name: "3:a:2,b", Cardinality: 2}})
	plainSchema := repro.MustSchema([]repro.Attribute{{Name: "a", Cardinality: 2}, {Name: "b", Cardinality: 2}})
	req := &releaseRequest{}
	if releaserKey(trickySchema, req, repro.StrategyFourier) == releaserKey(plainSchema, req, repro.StrategyFourier) {
		t.Fatal("crafted attribute name collides two distinct schemas onto one key")
	}
}

// TestWorkloadVariants: the k/star/anchor and explicit-marginal spellings
// all resolve.
func TestWorkloadVariants(t *testing.T) {
	s := newTestServer(t, testConfig())
	for _, wl := range []map[string]any{
		{"k": 1},
		{"k": 1, "star": true},
		{"k": 1, "anchor": 0},
		{"marginals": [][]int{{0}, {0, 2}}},
	} {
		rec := post(t, s, "/v1/release", testBody(map[string]any{"workload": wl, "epsilon": 0.5}))
		if rec.Code != http.StatusOK {
			t.Fatalf("workload %v: status %d: %s", wl, rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServerRelease measures end-to-end requests/sec on a warm plan
// cache — the serving baseline for future PRs. Run with -benchtime and
// -cpu to scale. Variants: "inline" carries rows in the body (never
// result-cached — the full decode+engine path), "dataset-uncached" reads an
// ingested dataset with the result cache off (the engine path minus rows
// decode), "dataset-cached" repeats one identical dataset request — the
// dashboard pattern the result cache exists for, required to be ≥ 10×
// faster than dataset-uncached.
func BenchmarkServerRelease(b *testing.B) {
	run := func(b *testing.B, s *Server, body []byte) {
		// Warm the Releaser registry, plan cache and (when on) result cache.
		warm := httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, warm)
		if rec.Code != http.StatusOK {
			b.Fatalf("warm-up failed: %d %s", rec.Code, rec.Body.String())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("request %d: %d", i, rec.Code)
			}
		}
		b.StopTimer()
		if b.N > 0 {
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		}
	}
	overrides := map[string]any{"workload": map[string]any{"k": 2}, "epsilon": 1e-6}
	b.Run("inline", func(b *testing.B) {
		s := newTestServer(b, Config{EpsilonCap: math.MaxFloat64, MaxWorkers: 0})
		body, err := json.Marshal(testBody(overrides))
		if err != nil {
			b.Fatal(err)
		}
		run(b, s, body)
	})
	// The dataset variants use a 14-attribute binary domain (16384 cells):
	// small enough to bench quickly,, big enough that the engine run — not
	// HTTP plumbing — dominates an uncached release, which is the cost a
	// cache hit avoids.
	datasetSetup := func(b *testing.B, cacheSize int) (*Server, []byte) {
		s := newTestServer(b, Config{EpsilonCap: math.MaxFloat64, MaxWorkers: 0, ResultCacheSize: cacheSize})
		attrs := make([]dataset.Attribute, 14)
		for i := range attrs {
			attrs[i] = dataset.Attribute{Name: fmt.Sprintf("a%d", i), Cardinality: 2}
		}
		schema := dataset.MustSchema(attrs)
		counts := make([]float64, schema.DomainSize())
		for i := range counts {
			counts[i] = float64(i % 5)
		}
		if _, err := s.Store().PutCounts("bench", schema, counts, 1000); err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(datasetBody("bench", overrides))
		if err != nil {
			b.Fatal(err)
		}
		return s, body
	}
	b.Run("dataset-uncached", func(b *testing.B) {
		s, body := datasetSetup(b, -1)
		run(b, s, body)
	})
	b.Run("dataset-cached", func(b *testing.B) {
		s, body := datasetSetup(b, 0)
		run(b, s, body)
	})
}

// ---------------------------------------------------------------------------
// Dataset store integration.

// testNDJSON renders testBody's schema and rows in the ingestion wire
// format.
func testNDJSON(t testing.TB) string {
	t.Helper()
	body := testBody(nil)
	var b strings.Builder
	hdr, err := json.Marshal(map[string]any{"schema": body["schema"]})
	if err != nil {
		t.Fatal(err)
	}
	b.Write(hdr)
	b.WriteByte('\n')
	for _, row := range body["rows"].([][]int) {
		raw, _ := json.Marshal(row)
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.String()
}

func putDataset(t testing.TB, s *Server, id, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, "/v1/datasets/"+id, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func do(t testing.TB, s *Server, method, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestDatasetUploadOnceBitIdentical is the acceptance criterion: a dataset
// ingested once serves /v1/release, /v1/cube and /v1/synthetic by
// dataset_id with byte-identical responses to the equivalent rows-in-body
// request at the same seed.
func TestDatasetUploadOnceBitIdentical(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "people", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body.String())
	}
	for _, ep := range []struct {
		path      string
		overrides map[string]any
	}{
		{"/v1/release", nil},
		{"/v1/cube", map[string]any{"max_order": 2}},
		{"/v1/synthetic", map[string]any{"synthetic_seed": int64(3)}},
	} {
		inline := post(t, s, ep.path, testBody(ep.overrides))
		if inline.Code != http.StatusOK {
			t.Fatalf("%s rows: %d %s", ep.path, inline.Code, inline.Body.String())
		}
		byID := testBody(ep.overrides)
		delete(byID, "rows")
		delete(byID, "schema")
		byID["dataset_id"] = "people"
		stored := post(t, s, ep.path, byID)
		if stored.Code != http.StatusOK {
			t.Fatalf("%s dataset_id: %d %s", ep.path, stored.Code, stored.Body.String())
		}
		// The ledger spend differs between the two calls, so compare
		// everything except the running budget block.
		var a, b map[string]json.RawMessage
		if err := json.Unmarshal(inline.Body.Bytes(), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(stored.Body.Bytes(), &b); err != nil {
			t.Fatal(err)
		}
		delete(a, "budget")
		delete(b, "budget")
		for k := range a {
			if string(a[k]) != string(b[k]) {
				t.Fatalf("%s: field %q differs between rows and dataset_id:\n%s\n%s", ep.path, k, a[k], b[k])
			}
		}
		if len(a) != len(b) {
			t.Fatalf("%s: response shape differs", ep.path)
		}
	}
}

// TestDatasetLifecycle covers PUT/GET/LIST/DELETE and the 404/400 edges.
func TestDatasetLifecycle(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body.String())
	}
	rec := do(t, s, http.MethodGet, "/v1/datasets/d1")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET: %d", rec.Code)
	}
	info := decode[map[string]any](t, rec)
	if info["rows"].(float64) != 300 || info["active_handles"].(float64) != 0 {
		t.Fatalf("bad info: %v", info)
	}
	if rec := do(t, s, http.MethodGet, "/v1/datasets"); rec.Code != http.StatusOK {
		t.Fatalf("LIST: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/v1/datasets/d1"); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/datasets/d1"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/v1/datasets/d1"); rec.Code != http.StatusNotFound {
		t.Fatalf("double DELETE: %d", rec.Code)
	}
	body := testBody(nil)
	delete(body, "rows")
	delete(body, "schema")
	body["dataset_id"] = "d1"
	if rec := post(t, s, "/v1/release", body); rec.Code != http.StatusNotFound {
		t.Fatalf("release over deleted dataset: %d %s", rec.Code, rec.Body.String())
	}
}

// TestDatasetIngestRejectsBadStream: a malformed stream is a 400 and
// registers nothing; a mismatched inline schema on release is a 400 too.
func TestDatasetIngestRejectsBadStream(t *testing.T) {
	s := newTestServer(t, testConfig())
	bad := testNDJSON(t) + "[0,9,0]\n" // out-of-range value on the last line
	if rec := putDataset(t, s, "d", bad); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad stream: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodGet, "/v1/datasets/d"); rec.Code != http.StatusNotFound {
		t.Fatalf("partial dataset registered: %d", rec.Code)
	}
	if rec := putDataset(t, s, "d", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatal(rec.Code)
	}
	body := testBody(nil)
	delete(body, "rows")
	body["dataset_id"] = "d"
	body["schema"] = []map[string]any{{"name": "other", "cardinality": 2}}
	if rec := post(t, s, "/v1/release", body); rec.Code != http.StatusBadRequest {
		t.Fatalf("mismatched inline schema accepted: %d %s", rec.Code, rec.Body.String())
	}
}

// TestDatasetPersistenceAcrossRestart: a second server over the same
// store directory answers dataset_id releases without re-upload, and the
// responses match the first server's bit for bit.
func TestDatasetPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.StoreDir = dir
	s1 := newTestServer(t, cfg)
	if rec := putDataset(t, s1, "people", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body.String())
	}
	body := testBody(nil)
	delete(body, "rows")
	delete(body, "schema")
	body["dataset_id"] = "people"
	before := post(t, s1, "/v1/release", body)
	if before.Code != http.StatusOK {
		t.Fatalf("release: %d %s", before.Code, before.Body.String())
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	after := post(t, s2, "/v1/release", body)
	if after.Code != http.StatusOK {
		t.Fatalf("release after restart: %d %s", after.Code, after.Body.String())
	}
	var a, b map[string]json.RawMessage
	if err := json.Unmarshal(before.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	delete(a, "budget")
	delete(b, "budget")
	for k := range a {
		if string(a[k]) != string(b[k]) {
			t.Fatalf("field %q changed across restart:\n%s\n%s", k, a[k], b[k])
		}
	}
}

// TestConcurrentDatasetTraffic: PUT, DELETE and dataset_id releases race on
// one id under -race; every response must be one of the sanctioned statuses
// and the server must stay coherent.
func TestConcurrentDatasetTraffic(t *testing.T) {
	s := newTestServer(t, testConfig())
	nd := testNDJSON(t)
	if rec := putDataset(t, s, "d", nd); rec.Code != http.StatusCreated {
		t.Fatal(rec.Code)
	}
	relBody := testBody(map[string]any{"epsilon": 0.01})
	delete(relBody, "rows")
	delete(relBody, "schema")
	relBody["dataset_id"] = "d"
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch g % 3 {
				case 0:
					if rec := putDataset(t, s, "d", nd); rec.Code != http.StatusCreated {
						t.Errorf("PUT: %d", rec.Code)
					}
				case 1:
					rec := do(t, s, http.MethodDelete, "/v1/datasets/d")
					if rec.Code != http.StatusNoContent && rec.Code != http.StatusNotFound {
						t.Errorf("DELETE: %d", rec.Code)
					}
				default:
					rec := post(t, s, "/v1/release", relBody)
					if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
						t.Errorf("release: %d %s", rec.Code, rec.Body.String())
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMetricsEndpoint: counters move, errors are attributed to their
// route, and the store/cache/budget blocks are present and plausible.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatal(rec.Code)
	}
	if rec := post(t, s, "/v1/release", testBody(nil)); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if rec := post(t, s, "/v1/release", testBody(map[string]any{"epsilon": -1})); rec.Code != http.StatusBadRequest {
		t.Fatal(rec.Code)
	}
	rec := do(t, s, http.MethodGet, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	m := decode[metricsResponse](t, rec)
	rel := m.Endpoints["POST /v1/release"]
	if rel.Requests != 2 || rel.Errors != 1 {
		t.Fatalf("release counters: %+v", rel)
	}
	if put := m.Endpoints["PUT /v1/datasets/{id}"]; put.Requests != 1 || put.Errors != 0 {
		t.Fatalf("put counters: %+v", put)
	}
	if m.Datasets.Datasets != 1 || m.Datasets.TotalRows != 300 {
		t.Fatalf("dataset stats: %+v", m.Datasets)
	}
	if m.Budget.EpsilonSpent <= 0 || m.Budget.EpsilonRemaining >= testConfig().EpsilonCap {
		t.Fatalf("budget block: %+v", m.Budget)
	}
	if m.PlanCache.Misses == 0 {
		t.Fatalf("plan cache block: %+v", m.PlanCache)
	}
}

// TestServerChargeCarriesSigma: a Gaussian release request records the
// allocator's effective σ on its ledger charge (exact zCDP ρ = 1/(2σ²));
// the cube endpoint, whose mechanism splits the budget internally, stays on
// the (ε, δ) conversion.
func TestServerChargeCarriesSigma(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := post(t, s, "/v1/release", testBody(map[string]any{"delta": 1e-6})); rec.Code != http.StatusOK {
		t.Fatalf("release: %d %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, s, "/v1/cube", testBody(map[string]any{"max_order": 1, "delta": 1e-6})); rec.Code != http.StatusOK {
		t.Fatalf("cube: %d %s", rec.Code, rec.Body.String())
	}
	hist := s.Ledger().History()
	if len(hist) != 2 {
		t.Fatalf("ledger holds %d charges, want 2", len(hist))
	}
	want := math.Sqrt(2*math.Log(2/1e-6)) / 1.0 // saturated: √(2·ln(2/δ))/ε
	if math.Abs(hist[0].Sigma-want) > 1e-9*want || hist[0].Sensitivity != 1 {
		t.Fatalf("release charge recorded (σ=%v, Δ=%v), want (σ=%v, Δ=1)",
			hist[0].Sigma, hist[0].Sensitivity, want)
	}
	if hist[1].Sigma != 0 {
		t.Fatalf("cube charge must not carry a Gaussian description, got %+v", hist[1])
	}
}

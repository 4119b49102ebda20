package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// bodyMinusBudget strips the live budget block so two responses with
// different ledger histories can be compared byte for byte.
func bodyMinusBudget(t testing.TB, raw []byte) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
	delete(m, "budget")
	return m
}

func sameBody(t testing.TB, label string, a, b map[string]json.RawMessage) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: response shape differs", label)
	}
	for k := range a {
		if string(a[k]) != string(b[k]) {
			t.Fatalf("%s: field %q differs:\n%s\n%s", label, k, a[k], b[k])
		}
	}
}

// TestHealthEndpoints: healthz always says yes, readyz flips to 503 once a
// drain starts, and neither requires authentication.
func TestHealthEndpoints(t *testing.T) {
	cfg := testConfig()
	cfg.APIKeys = []KeyConfig{{Key: "secret"}}
	s := newTestServer(t, cfg)

	if rec := do(t, s, http.MethodGet, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	rec := do(t, s, http.MethodGet, "/v1/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d", rec.Code)
	}
	if h := decode[healthResponse](t, rec); h.Status != "ok" {
		t.Fatalf("readyz status %q", h.Status)
	}
	// Metrics still authenticates — the health bypass is narrow.
	if rec := do(t, s, http.MethodGet, "/v1/metrics"); rec.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated metrics: %d, want 401", rec.Code)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain with nothing in flight: %v", err)
	}
	rec = do(t, s, http.MethodGet, "/v1/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", rec.Code)
	}
	if h := decode[healthResponse](t, rec); h.Status != "draining" {
		t.Fatalf("readyz status %q, want draining", h.Status)
	}
	if rec := do(t, s, http.MethodGet, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d — liveness must not flap on drain", rec.Code)
	}
}

// TestDrainWaitsForInflight: Drain blocks until a handler that is still
// mid-request returns, and reports a deadline instead of hanging forever.
func TestDrainWaitsForInflight(t *testing.T) {
	s := newTestServer(t, testConfig())
	pr, pw := io.Pipe()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPut, "/v1/datasets/slow", pr)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		done <- rec
	}()
	for s.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain returned with a handler still reading its body")
	}
	cancel()

	if _, err := io.WriteString(pw, testNDJSON(t)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	rec := <-done
	if rec.Code != http.StatusCreated {
		t.Fatalf("slow PUT: %d %s", rec.Code, rec.Body.String())
	}
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after the handler finished: %v", err)
	}
}

// gzipped compresses a string.
func gzipped(t testing.TB, s string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := io.WriteString(zw, s); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func putGzip(t testing.TB, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, path, bytes.NewReader(body))
	req.Header.Set("Content-Encoding", "gzip")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestGzipIngest: a gzip-compressed NDJSON stream ingests to the same
// dataset bits as the plain stream, and releases identically.
func TestGzipIngest(t *testing.T) {
	nd := testNDJSON(t)
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "plain", nd); rec.Code != http.StatusCreated {
		t.Fatalf("plain PUT: %d", rec.Code)
	}
	if rec := putGzip(t, s, "/v1/datasets/zipped", gzipped(t, nd)); rec.Code != http.StatusCreated {
		t.Fatalf("gzip PUT: %d %s", rec.Code, rec.Body.String())
	}

	release := func(id string) map[string]json.RawMessage {
		body := testBody(nil)
		delete(body, "rows")
		delete(body, "schema")
		body["dataset_id"] = id
		rec := post(t, s, "/v1/release", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("release over %q: %d %s", id, rec.Code, rec.Body.String())
		}
		return bodyMinusBudget(t, rec.Body.Bytes())
	}
	sameBody(t, "gzip vs plain ingest", release("plain"), release("zipped"))

	// Appending a gzipped delta doubles every count, same as a plain append.
	if rec := putGzip(t, s, "/v1/datasets/zipped?mode=append", gzipped(t, nd)); rec.Code != http.StatusCreated {
		t.Fatalf("gzip append: %d %s", rec.Code, rec.Body.String())
	}
	info := decode[map[string]any](t, do(t, s, http.MethodGet, "/v1/datasets/zipped"))
	if got := info["rows"].(float64); got != 600 {
		t.Fatalf("rows after gzip append: %v, want 600", got)
	}
}

// TestGzipIngestRejections: corrupt or mislabelled streams are 400s, and
// rejection is transactional — the resident dataset keeps its bits.
func TestGzipIngestRejections(t *testing.T) {
	nd := testNDJSON(t)
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d", nd); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d", rec.Code)
	}

	// Not gzip at all: the header check fails before any ingest work.
	if rec := putGzip(t, s, "/v1/datasets/bad", []byte(nd)); rec.Code != http.StatusBadRequest {
		t.Fatalf("plain bytes labelled gzip: %d, want 400", rec.Code)
	}
	// Truncated stream: corruption surfaces mid-ingest, and the failed
	// replace must not have registered anything.
	z := gzipped(t, nd)
	if rec := putGzip(t, s, "/v1/datasets/bad", z[:len(z)-20]); rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated gzip: %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/datasets/bad"); rec.Code != http.StatusNotFound {
		t.Fatalf("dataset registered from a rejected stream: %d", rec.Code)
	}
	// A failed append leaves the existing dataset untouched.
	if rec := putGzip(t, s, "/v1/datasets/d?mode=append", z[:len(z)-20]); rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated gzip append: %d, want 400", rec.Code)
	}
	info := decode[map[string]any](t, do(t, s, http.MethodGet, "/v1/datasets/d"))
	if got := info["rows"].(float64); got != 300 {
		t.Fatalf("rows after rejected append: %v, want 300", got)
	}
	// Unsupported encodings are refused up front.
	req := httptest.NewRequest(http.MethodPut, "/v1/datasets/bad", strings.NewReader(nd))
	req.Header.Set("Content-Encoding", "br")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("Content-Encoding br: %d, want 400", rec.Code)
	}
}

// TestGzipIngestExpansionCap: with MaxIngestBytes set, a tiny gzip body
// that decompresses past gzipExpansionCap times the wire limit is refused
// mid-stream (transactionally) instead of buying ~1000x ingest work inside
// the byte budget — while an honestly compressed stream under the cap
// still ingests.
func TestGzipIngestExpansionCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxIngestBytes = 4096
	s := newTestServer(t, cfg)

	// An honest stream: well within both the wire and expansion budgets.
	nd := testNDJSON(t)
	if rec := putGzip(t, s, "/v1/datasets/ok", gzipped(t, nd)); rec.Code != http.StatusCreated {
		t.Fatalf("honest gzip PUT: %d %s", rec.Code, rec.Body.String())
	}

	// A bomb: valid NDJSON rows repeated far past 32x the wire limit
	// compress to a few hundred bytes.
	var bomb strings.Builder
	bomb.WriteString(`{"schema":[{"name":"a","cardinality":2}]}` + "\n")
	for int64(bomb.Len()) <= (gzipExpansionCap+1)*cfg.MaxIngestBytes {
		bomb.WriteString("[1]\n")
	}
	z := gzipped(t, bomb.String())
	if int64(len(z)) > cfg.MaxIngestBytes {
		t.Fatalf("test bomb does not fit the wire budget: %d > %d", len(z), cfg.MaxIngestBytes)
	}
	rec := putGzip(t, s, "/v1/datasets/bomb", z)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("gzip bomb: %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "expands past") {
		t.Fatalf("bomb rejection does not name the expansion cap: %s", rec.Body.String())
	}
	if rec := do(t, s, http.MethodGet, "/v1/datasets/bomb"); rec.Code != http.StatusNotFound {
		t.Fatalf("dataset registered from a rejected bomb: %d", rec.Code)
	}
}

// TestResultCacheAppendInvalidation: ?mode=append installs a new dataset
// version, so a cached release for the old bits can never replay — the
// same request re-runs against the new counts (and re-charges).
func TestResultCacheAppendInvalidation(t *testing.T) {
	nd := testNDJSON(t)
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "people", nd); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d", rec.Code)
	}
	body := testBody(nil)
	delete(body, "rows")
	delete(body, "schema")
	body["dataset_id"] = "people"

	before := post(t, s, "/v1/release", body)
	if before.Code != http.StatusOK {
		t.Fatalf("release: %d", before.Code)
	}
	req := httptest.NewRequest(http.MethodPut, "/v1/datasets/people?mode=append", strings.NewReader(nd))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	after := post(t, s, "/v1/release", body)
	if after.Code != http.StatusOK {
		t.Fatalf("release after append: %d", after.Code)
	}
	a := bodyMinusBudget(t, before.Body.Bytes())
	b := bodyMinusBudget(t, after.Body.Bytes())
	if string(a["tables"]) == string(b["tables"]) {
		t.Fatal("release after append replayed the pre-append tables — stale cache entry served")
	}
	m := decode[metricsResponse](t, do(t, s, http.MethodGet, "/v1/metrics"))
	if m.ResultCache.Hits != 0 || m.ResultCache.Misses != 2 {
		t.Fatalf("result cache %+v, want 2 misses and no hits across an append", m.ResultCache)
	}
	// The new version's entry replays normally.
	replay := post(t, s, "/v1/release", body)
	sameBody(t, "post-append replay", b, bodyMinusBudget(t, replay.Body.Bytes()))
}

// TestDomainCapRefusesWideSchemas: a schema wider than store.MaxDim bits is
// a 400 on both untrusted-schema paths — a header-only NDJSON PUT and an
// inline-rows release — refused before its 2^d-cell domain is allocated,
// and neither registers a dataset, a Releaser nor a ledger charge.
func TestDomainCapRefusesWideSchemas(t *testing.T) {
	s := newTestServer(t, testConfig())
	wide := []map[string]any{{"name": "wide", "cardinality": 1 << 26}} // 26 bits
	hdr, err := json.Marshal(map[string]any{"schema": wide})
	if err != nil {
		t.Fatal(err)
	}
	release := testBody(map[string]any{"schema": wide, "rows": [][]int{{0}}})

	// Each request is checked before the next runs: past the cap a
	// release would go on to run the whole pipeline over 2^26 cells.
	refused := func(what string, send func() *httptest.ResponseRecorder) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := send()
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
			t.Fatalf("%s allocated %d MiB, want < 64 MiB", what, alloc>>20)
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "domain limit") {
			t.Fatalf("%s: %d %s, want a 400 naming the domain limit", what, rec.Code, rec.Body.String())
		}
	}
	refused("26-bit header-only PUT", func() *httptest.ResponseRecorder {
		return putDataset(t, s, "wide", string(hdr)+"\n")
	})
	refused("26-bit inline-rows release", func() *httptest.ResponseRecorder {
		return post(t, s, "/v1/release", release)
	})
	if rec := do(t, s, http.MethodGet, "/v1/datasets/wide"); rec.Code != http.StatusNotFound {
		t.Fatalf("rejected PUT registered a dataset: %d", rec.Code)
	}
	if n := s.store.Stats().Datasets; n != 0 {
		t.Fatalf("%d datasets resident after rejected PUT", n)
	}
	if n := len(s.releasers); n != 0 {
		t.Fatalf("%d Releasers registered by a rejected release", n)
	}
	if spent := decode[budgetResponse](t, do(t, s, http.MethodGet, "/v1/budget")); spent.Releases != 0 {
		t.Fatalf("rejected release charged the ledger: %+v", spent)
	}
}

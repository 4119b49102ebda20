package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestRequestIDEcho pins the correlation contract: an inbound
// X-Request-Id is honored and echoed; without one the server generates
// a 16-hex ID and echoes that.
func TestRequestIDEcho(t *testing.T) {
	s := newTestServer(t, testConfig())

	raw, _ := json.Marshal(testBody(nil))
	req := httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(raw))
	req.Header.Set("X-Request-Id", "corr-abc-123")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-Id"); got != "corr-abc-123" {
		t.Errorf("inbound request ID not echoed: got %q", got)
	}

	rec = post(t, s, "/v1/release", testBody(nil))
	if got := rec.Header().Get("X-Request-Id"); !hexID.MatchString(got) {
		t.Errorf("generated request ID = %q, want 16 hex chars", got)
	}

	// Garbage inbound IDs (unprintable, quoted, oversize) are replaced,
	// not reflected into headers and logs.
	for _, bad := range []string{"has\"quote", "ctl\x01char", strings.Repeat("x", 200)} {
		req := httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(raw))
		req.Header.Set("X-Request-Id", bad)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if got := rec.Header().Get("X-Request-Id"); !hexID.MatchString(got) {
			t.Errorf("invalid inbound ID %q reflected as %q, want generated", bad, got)
		}
	}
}

// TestRequestIDInErrorBody checks 4xx/5xx error bodies carry the same
// request_id as the response header, so a failing client can quote one
// identifier at the operator.
func TestRequestIDInErrorBody(t *testing.T) {
	s := newTestServer(t, testConfig())
	rec := post(t, s, "/v1/release", testBody(map[string]any{"epsilon": -1}))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	er := decode[errorResponse](t, rec)
	if er.RequestID == "" || er.RequestID != rec.Header().Get("X-Request-Id") {
		t.Errorf("error body request_id %q, header %q: must match and be non-empty",
			er.RequestID, rec.Header().Get("X-Request-Id"))
	}

	// Same for auth failures, which never reach a handler body.
	cfg := testConfig()
	cfg.APIKeys = []KeyConfig{{Key: "tenant-key-1"}}
	sa := newTestServer(t, cfg)
	rec = post(t, sa, "/v1/release", testBody(nil)) // no key
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("status %d, want 401", rec.Code)
	}
	er = decode[errorResponse](t, rec)
	if er.RequestID == "" || er.RequestID != rec.Header().Get("X-Request-Id") {
		t.Errorf("401 body request_id %q, header %q", er.RequestID, rec.Header().Get("X-Request-Id"))
	}
}

// TestPrometheusExposition runs one release and scrapes both Prometheus
// surfaces (?format=prometheus and the admin MetricsHandler): endpoint
// counters and latency buckets, stage durations and runtime gauges must
// all be present, under the v0.0.4 content type.
func TestPrometheusExposition(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := post(t, s, "/v1/release", testBody(nil)); rec.Code != http.StatusOK {
		t.Fatalf("release: %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/metrics?format=prometheus", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("scrape: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.TextContentType {
		t.Errorf("Content-Type = %q, want %q", ct, telemetry.TextContentType)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`dpcubed_requests_total{endpoint="POST /v1/release"} 1`,
		`dpcubed_request_duration_seconds_bucket{endpoint="POST /v1/release",le="+Inf"} 1`,
		`dpcubed_stage_duration_seconds_bucket{stage="measure",le=`,
		`dpcubed_budget_epsilon_spent`,
		`go_goroutines`,
		`# TYPE dpcubed_request_duration_seconds histogram`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The raw tenant key must never appear on any exposition surface.
	if strings.Contains(body, "epsilon\":") {
		t.Errorf("scrape leaks request payloads")
	}

	// The admin handler serves the same registry.
	rec2 := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec2.Body.String(), `dpcubed_requests_total{endpoint="POST /v1/release"}`) {
		t.Error("admin /metrics handler missing request counters")
	}
}

// TestMetricsJSONLatencyAndStages checks the JSON /v1/metrics gains a
// latency section per endpoint and a stages section with engine stage
// quantiles after a release.
func TestMetricsJSONLatencyAndStages(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := post(t, s, "/v1/release", testBody(nil)); rec.Code != http.StatusOK {
		t.Fatalf("release: %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	m := decode[metricsResponse](t, rec)
	rel, ok := m.Latency["POST /v1/release"]
	if !ok || rel.Count < 1 {
		t.Errorf("latency[POST /v1/release] = %+v, want count ≥ 1 (have %v)", rel, m.Latency)
	}
	for _, stage := range []string{"plan", "allocate", "measure", "recover", "consist"} {
		st, ok := m.Stages[stage]
		if !ok || st.Count < 1 {
			t.Errorf("stages[%q] = %+v, want count ≥ 1", stage, st)
		}
	}
}

// TestDebugTiming pins the debug_timing response contract: the span
// tree rides the response (never the cache), stage spans sum to no more
// than the root wall time, and the rescache verdict flips from miss to
// hit on the replayed identical request.
func TestDebugTiming(t *testing.T) {
	s := newTestServer(t, testConfig())
	nd := testNDJSON(t)
	if rec := putDataset(t, s, "people", nd); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d", rec.Code)
	}
	body := testBody(map[string]any{"debug_timing": true, "dataset_id": "people"})
	delete(body, "rows")
	delete(body, "schema")

	type timed struct {
		Timing *telemetry.SpanJSON `json:"timing"`
	}
	rec := post(t, s, "/v1/release", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("release: %d %s", rec.Code, rec.Body.String())
	}
	tree := decode[timed](t, rec).Timing
	if tree == nil {
		t.Fatal("debug_timing response has no timing field")
	}
	if tree.Name != "release" || tree.DurationMS <= 0 {
		t.Errorf("timing root = %q (%gms), want release with positive duration", tree.Name, tree.DurationMS)
	}
	if got := tree.Attrs["rescache"]; got != "miss" {
		t.Errorf("first release rescache = %q, want miss", got)
	}
	stages := map[string]bool{}
	sum := 0.0
	for _, sp := range tree.Spans {
		stages[sp.Name] = true
		sum += sp.DurationMS
	}
	for _, want := range []string{"plan", "allocate", "measure", "recover", "consist", "charge"} {
		if !stages[want] {
			t.Errorf("timing tree missing %q span (have %v)", want, tree.Spans)
		}
	}
	if sum > tree.DurationMS {
		t.Errorf("child spans sum to %gms > root %gms", sum, tree.DurationMS)
	}

	// The identical request replays from the result cache — and still
	// carries fresh timing, with the verdict flipped to hit.
	rec = post(t, s, "/v1/release", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("replay: %d", rec.Code)
	}
	tree = decode[timed](t, rec).Timing
	if tree == nil {
		t.Fatal("replayed response lost its timing field")
	}
	if got := tree.Attrs["rescache"]; got != "hit" {
		t.Errorf("replayed release rescache = %q, want hit", got)
	}

	// Without the flag, no timing field at all.
	delete(body, "debug_timing")
	body["seed"] = 8 // distinct result-cache key
	rec = post(t, s, "/v1/release", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("plain release: %d", rec.Code)
	}
	if decode[timed](t, rec).Timing != nil {
		t.Error("timing present without debug_timing")
	}
}

// flushRecorder wraps a ResponseRecorder, counting Flush calls.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

func TestStatusWriter(t *testing.T) {
	// Write with no explicit WriteHeader records the implicit 200.
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	sw.Write([]byte("x"))
	if sw.status != http.StatusOK {
		t.Errorf("implicit status = %d, want 200", sw.status)
	}
	// Flush passes through to a flushing writer.
	fr := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	sw = &statusWriter{ResponseWriter: fr}
	sw.Flush()
	if fr.flushes != 1 {
		t.Errorf("Flush not passed through (%d calls)", fr.flushes)
	}
	// And is a no-op, not a panic, on a non-flushing writer.
	(&statusWriter{ResponseWriter: nonFlusher{}}).Flush()
	// First status sticks.
	sw = &statusWriter{ResponseWriter: httptest.NewRecorder()}
	sw.WriteHeader(http.StatusBadRequest)
	sw.WriteHeader(http.StatusOK)
	if sw.status != http.StatusBadRequest {
		t.Errorf("status = %d, want first WriteHeader's 400", sw.status)
	}
}

type nonFlusher struct{ http.ResponseWriter }

func (nonFlusher) Header() http.Header         { return http.Header{} }
func (nonFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (nonFlusher) WriteHeader(int)             {}

// TestRequestLogRedactsKey checks the structured request log carries
// the redacted key fingerprint — and never the raw tenant secret.
func TestRequestLogRedactsKey(t *testing.T) {
	var buf bytes.Buffer
	logger, err := telemetry.NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	const secret = "super-secret-tenant-key"
	cfg := testConfig()
	cfg.APIKeys = []KeyConfig{{Key: secret}}
	cfg.Logger = logger
	s := newTestServer(t, cfg)
	rec := postAs(t, s, secret, "/v1/release", testBody(nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("release: %d %s", rec.Code, rec.Body.String())
	}
	logs := buf.String()
	if logs == "" {
		t.Fatal("no request log emitted")
	}
	if strings.Contains(logs, secret) {
		t.Fatalf("raw API key leaked into logs:\n%s", logs)
	}
	if !strings.Contains(logs, redactKey(secret)) {
		t.Errorf("logs missing redacted key %q:\n%s", redactKey(secret), logs)
	}
	var line struct {
		Msg       string  `json:"msg"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		RequestID string  `json:"request_id"`
		Duration  float64 `json:"duration_ms"`
	}
	if err := json.Unmarshal([]byte(logs[:strings.IndexByte(logs, '\n')]), &line); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, logs)
	}
	if line.Method != "POST" || line.Path != "/v1/release" || line.Status != 200 {
		t.Errorf("log line = %+v", line)
	}
	if line.RequestID != rec.Header().Get("X-Request-Id") {
		t.Errorf("log request_id %q != response header %q", line.RequestID, rec.Header().Get("X-Request-Id"))
	}

	// The shutdown budget summary is printed to stderr (a log sink): it
	// must carry the key only in redacted form too.
	sum := s.BudgetSummary()
	if strings.Contains(sum, secret) {
		t.Fatalf("raw API key leaked into budget summary:\n%s", sum)
	}
	if !strings.Contains(sum, redactKey(secret)) {
		t.Errorf("budget summary missing redacted key %q:\n%s", redactKey(secret), sum)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postAs is post with an API key attached.
func postAs(t testing.TB, s *Server, key, path string, body map[string]any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func budgetAs(t testing.TB, s *Server, key string) budgetResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/budget", nil)
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("budget status %d: %s", rec.Code, rec.Body.String())
	}
	return decode[budgetResponse](t, rec)
}

func tenantConfig() Config {
	return Config{
		EpsilonCap: 2.0,
		DeltaCap:   1e-3,
		MaxWorkers: 2,
		APIKeys: []KeyConfig{
			{Key: "alice-key", EpsilonCap: 1.0, DeltaCap: 1e-4},
			{Key: "bob-key"}, // inherits the global caps
		},
	}
}

// TestAPIKeyAuthRequired: with keys configured, every endpoint refuses
// missing and unknown keys with 401 (and burns nothing), while a valid
// key — via either header form — serves.
func TestAPIKeyAuthRequired(t *testing.T) {
	s := newTestServer(t, tenantConfig())
	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodPost, "/v1/release"},
		{http.MethodGet, "/v1/budget"},
		{http.MethodGet, "/v1/metrics"},
		{http.MethodGet, "/v1/datasets"},
		{http.MethodPut, "/v1/datasets/d"},
	} {
		req := httptest.NewRequest(probe.method, probe.path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("%s %s without key: %d, want 401", probe.method, probe.path, rec.Code)
		}
		req = httptest.NewRequest(probe.method, probe.path, strings.NewReader("{}"))
		req.Header.Set("X-API-Key", "wrong")
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("%s %s with unknown key: %d, want 401", probe.method, probe.path, rec.Code)
		}
	}
	if b := s.budget(); b.EpsilonSpent != 0 {
		t.Fatalf("unauthenticated probes burned budget: %+v", b)
	}
	if rec := postAs(t, s, "alice-key", "/v1/release", testBody(map[string]any{"epsilon": 0.1})); rec.Code != http.StatusOK {
		t.Fatalf("valid key refused: %d %s", rec.Code, rec.Body.String())
	}
	// Authorization: Bearer is accepted too.
	raw, _ := json.Marshal(testBody(map[string]any{"epsilon": 0.1, "seed": 2}))
	req := httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(raw))
	req.Header.Set("Authorization", "Bearer bob-key")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("bearer key refused: %d %s", rec.Code, rec.Body.String())
	}
}

// TestPerKeyBudgetsIndependent is the acceptance criterion: two keys spend
// independently — one key's 429 never blocks the other — while the global
// cap still binds across both, with a refund keeping the blocked tenant's
// own ledger clean.
func TestPerKeyBudgetsIndependent(t *testing.T) {
	s := newTestServer(t, tenantConfig())
	release := func(key string, eps float64, seed int) *httptest.ResponseRecorder {
		return postAs(t, s, key, "/v1/release", testBody(map[string]any{"epsilon": eps, "seed": seed}))
	}
	// Alice exhausts her own ε cap of 1.0.
	if rec := release("alice-key", 0.9, 1); rec.Code != http.StatusOK {
		t.Fatalf("alice: %d %s", rec.Code, rec.Body.String())
	}
	rec := release("alice-key", 0.9, 2)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("alice past her cap: %d, want 429", rec.Code)
	}
	// The refusing cap is named by fingerprint only: a 429 body travels to
	// clients and logs, so it must never carry the raw credential.
	if e := decode[errorResponse](t, rec); !strings.Contains(e.Error, redactKey("alice-key")) {
		t.Fatalf("per-key 429 must name the refusing cap by fingerprint: %s", e.Error)
	} else if strings.Contains(e.Error, "alice-key") {
		t.Fatalf("per-key 429 leaks the raw key: %s", e.Error)
	}
	// Alice's exhaustion never blocks bob.
	if rec := release("bob-key", 0.9, 3); rec.Code != http.StatusOK {
		t.Fatalf("bob blocked by alice's exhaustion: %d %s", rec.Code, rec.Body.String())
	}
	// The global cap (2.0) still binds: bob has per-key room (inherited
	// cap 2.0, spent 0.9) but the deployment has only 0.2 left.
	rec = release("bob-key", 0.5, 4)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("global cap must bind: %d %s", rec.Code, rec.Body.String())
	}
	if e := decode[errorResponse](t, rec); !strings.Contains(e.Error, "global cap") {
		t.Fatalf("global 429 must name the refusing cap: %s", e.Error)
	}
	// The refused global charge was refunded from bob's ledger.
	bb := budgetAs(t, s, "bob-key")
	if math.Abs(bb.EpsilonSpent-0.9) > 1e-12 || bb.Releases != 1 {
		t.Fatalf("bob's ledger after the global refusal: %+v", bb)
	}
	if bb.Key != "bob-key" || bb.Global == nil {
		t.Fatalf("per-key budget response shape: %+v", bb)
	}
	if math.Abs(bb.Global.EpsilonSpent-1.8) > 1e-9 {
		t.Fatalf("global spend %v, want 1.8", bb.Global.EpsilonSpent)
	}
	// Per-key caps surface in the caller's own view.
	ab := budgetAs(t, s, "alice-key")
	if ab.EpsilonCap != 1.0 || math.Abs(ab.EpsilonSpent-0.9) > 1e-12 {
		t.Fatalf("alice's view: %+v", ab)
	}
	// Bob can still spend what the global remainder allows.
	if rec := release("bob-key", 0.2, 5); rec.Code != http.StatusOK {
		t.Fatalf("bob refused within the remainder: %d %s", rec.Code, rec.Body.String())
	}
}

// TestPerKeySpendSurvivesRestart is the acceptance criterion: per-key
// spend persists through the store codec and a restarted daemon resumes
// every tenant's ledger where the previous process stopped.
func TestPerKeySpendSurvivesRestart(t *testing.T) {
	cfg := tenantConfig()
	cfg.StoreDir = t.TempDir()
	s1 := newTestServer(t, cfg)
	if rec := postAs(t, s1, "alice-key", "/v1/release", testBody(map[string]any{"epsilon": 0.75})); rec.Code != http.StatusOK {
		t.Fatalf("release: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postAs(t, s1, "bob-key", "/v1/release", testBody(map[string]any{"epsilon": 0.25, "seed": 2})); rec.Code != http.StatusOK {
		t.Fatalf("release: %d %s", rec.Code, rec.Body.String())
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	ab := budgetAs(t, s2, "alice-key")
	if math.Abs(ab.EpsilonSpent-0.75) > 1e-12 || ab.Releases != 1 {
		t.Fatalf("alice's spend lost across restart: %+v", ab)
	}
	bb := budgetAs(t, s2, "bob-key")
	if math.Abs(bb.EpsilonSpent-0.25) > 1e-12 {
		t.Fatalf("bob's spend lost across restart: %+v", bb)
	}
	if math.Abs(ab.Global.EpsilonSpent-1.0) > 1e-12 {
		t.Fatalf("global spend lost across restart: %+v", ab.Global)
	}
	// The restored spend still gates admission: alice has 0.25 left.
	if rec := postAs(t, s2, "alice-key", "/v1/release", testBody(map[string]any{"epsilon": 0.5, "seed": 3})); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("restored spend not enforced: %d", rec.Code)
	}
	if rec := postAs(t, s2, "alice-key", "/v1/release", testBody(map[string]any{"epsilon": 0.2, "seed": 4})); rec.Code != http.StatusOK {
		t.Fatalf("remainder refused after restart: %d %s", rec.Code, rec.Body.String())
	}
}

// TestZCDPServerAdmitsLongSequence is the acceptance criterion: with
// -composition zcdp, a 50×(ε=0.05, δ=1e-9) Gaussian sequence is admitted
// under a cap that plain summation refuses long before the end.
func TestZCDPServerAdmitsLongSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("100 engine releases")
	}
	run := func(composition string) (admitted int) {
		s := newTestServer(t, Config{
			EpsilonCap:  1.0,
			DeltaCap:    1e-6,
			MaxWorkers:  2,
			Composition: composition,
		})
		for i := 0; i < 50; i++ {
			rec := post(t, s, "/v1/release", testBody(map[string]any{
				"epsilon": 0.05, "delta": 1e-9, "seed": i,
			}))
			switch rec.Code {
			case http.StatusOK:
				admitted++
			case http.StatusTooManyRequests:
				return admitted
			default:
				t.Fatalf("%s release %d: %d %s", composition, i, rec.Code, rec.Body.String())
			}
		}
		return admitted
	}
	if n := run("zcdp"); n != 50 {
		t.Fatalf("zcdp admitted %d/50 small Gaussian releases", n)
	}
	if n := run("basic"); n >= 50 {
		t.Fatalf("basic summation admitted all %d releases; the sequence does not discriminate", n)
	}
	// The zcdp metrics report composed spend at the target δ.
	s := newTestServer(t, Config{EpsilonCap: 1.0, DeltaCap: 1e-6, Composition: "zcdp"})
	if rec := post(t, s, "/v1/release", testBody(map[string]any{"epsilon": 0.05, "delta": 1e-9})); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	m := decode[metricsResponse](t, do(t, s, http.MethodGet, "/v1/metrics"))
	if m.Composition != "zcdp" {
		t.Fatalf("metrics composition %q", m.Composition)
	}
	if m.Budget.DeltaSpent != 1e-6 || m.Budget.EpsilonSpent >= 0.05 {
		t.Fatalf("zcdp spend must be the tight conversion at the target δ: %+v", m.Budget)
	}
}

// TestChargeRetainedOnPostAdmissionFailure pins the charge-at-admission
// contract (satellite bugfix): a charge admitted just before the mechanism
// fails is kept, and the error body documents the retention instead of
// leaving it a surprise.
func TestChargeRetainedOnPostAdmissionFailure(t *testing.T) {
	s := newTestServer(t, testConfig())
	// Warm the Releaser registry so the next request reaches admission
	// (a cold registry fails during planning, before any charge).
	if rec := post(t, s, "/v1/release", testBody(map[string]any{"epsilon": 0.5})); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: %d", rec.Code)
	}
	spentBefore := s.budget().EpsilonSpent

	for _, path := range []string{"/v1/release", "/v1/cube"} {
		body := testBody(map[string]any{"epsilon": 0.25, "seed": 9})
		if path == "/v1/cube" {
			body["max_order"] = 1
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // client is gone before the mechanism starts
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != statusClientClosedRequest {
			t.Fatalf("%s cancelled: %d, want %d (%s)", path, rec.Code, statusClientClosedRequest, rec.Body.String())
		}
		e := decode[errorResponse](t, rec)
		if !strings.Contains(e.Error, "retained") || !strings.Contains(e.Error, "admission") {
			t.Fatalf("%s: error body must document the retained charge: %s", path, e.Error)
		}
		spentAfter := s.budget().EpsilonSpent
		if math.Abs(spentAfter-spentBefore-0.25) > 1e-12 {
			t.Fatalf("%s: admitted charge not retained: before %v after %v", path, spentBefore, spentAfter)
		}
		spentBefore = spentAfter
	}
}

// TestMetricsRemainingClampedAndPerKey pins the metrics bugfix: remaining
// budget is routed through the ledger and clamped at zero (the admission
// tolerance can push float spend a few ulps past the cap), and per-key
// spend shows up.
func TestMetricsRemainingClampedAndPerKey(t *testing.T) {
	cfg := tenantConfig()
	// 0.1 + 0.2 > 0.3 in float64, but within the admission tolerance.
	cfg.APIKeys = append(cfg.APIKeys, KeyConfig{Key: "edge-key", EpsilonCap: 0.3, DeltaCap: 1e-4})
	s := newTestServer(t, cfg)
	for i, eps := range []float64{0.1, 0.2} {
		if rec := postAs(t, s, "edge-key", "/v1/release", testBody(map[string]any{"epsilon": eps, "seed": i})); rec.Code != http.StatusOK {
			t.Fatalf("release %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	req.Header.Set("X-API-Key", "alice-key")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	m := decode[metricsResponse](t, rec)
	edge, ok := m.PerKey[redactKey("edge-key")]
	if !ok {
		t.Fatalf("per-key budgets missing from metrics: %+v", m.PerKey)
	}
	// Raw keys are credentials; the per-key breakdown must never leak one
	// tenant's key to another.
	for label := range m.PerKey {
		for _, kc := range cfg.APIKeys {
			if label == kc.Key {
				t.Fatalf("metrics leaks raw API key %q", kc.Key)
			}
		}
	}
	if edge.EpsilonSpent <= 0.3 {
		t.Skipf("float sum %v did not overshoot the cap on this platform", edge.EpsilonSpent)
	}
	if edge.EpsilonRemaining != 0 {
		t.Fatalf("remaining must clamp at zero, got %v", edge.EpsilonRemaining)
	}
	for key, b := range m.PerKey {
		if b.EpsilonRemaining < 0 || b.DeltaRemaining < 0 {
			t.Fatalf("key %s: negative remaining %+v", key, b)
		}
	}
	if m.Composition != "basic" {
		t.Fatalf("composition %q", m.Composition)
	}
}

// TestEpsilonOnlyKeyUnderZCDP: a key line naming only an ε cap inherits
// the global δ cap, so the documented "alice 0.75" + "-composition zcdp"
// quickstart actually starts and serves Gaussian releases.
func TestEpsilonOnlyKeyUnderZCDP(t *testing.T) {
	keys, err := ParseAPIKeys(strings.NewReader("alice 0.75\nbob\n"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		EpsilonCap:  2,
		DeltaCap:    1e-6,
		Composition: "zcdp",
		APIKeys:     keys,
	})
	if err != nil {
		t.Fatalf("eps-only key must be constructible under zcdp: %v", err)
	}
	if rec := postAs(t, s, "alice", "/v1/release", testBody(map[string]any{"epsilon": 0.1, "delta": 1e-9})); rec.Code != http.StatusOK {
		t.Fatalf("release: %d %s", rec.Code, rec.Body.String())
	}
	if b := budgetAs(t, s, "alice"); b.EpsilonCap != 0.75 || b.DeltaCap != 1e-6 {
		t.Fatalf("alice's caps: %+v, want own ε cap with inherited δ cap", b)
	}
}

// TestCompositionSwitchRefusesSnapshot: a ledger snapshot recorded under
// one composition must not be silently reinterpreted under another — that
// would re-value every tenant's recorded spend.
func TestCompositionSwitchRefusesSnapshot(t *testing.T) {
	cfg := tenantConfig()
	cfg.StoreDir = t.TempDir()
	s1 := newTestServer(t, cfg)
	if rec := postAs(t, s1, "bob-key", "/v1/release", testBody(map[string]any{"epsilon": 0.5})); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	zcfg := cfg
	zcfg.Composition = "zcdp"
	zcfg.TargetDelta = 1e-5 // under every key's δ cap, so only the snapshot check can refuse
	if _, err := New(zcfg); err == nil || !strings.Contains(err.Error(), "composition") {
		t.Fatalf("basic-recorded snapshot loaded under zcdp: %v", err)
	}
	// The unchanged configuration still restarts fine.
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAPIKeyParsing covers the file and env formats.
func TestAPIKeyParsing(t *testing.T) {
	keys, err := ParseAPIKeys(strings.NewReader(`
# comment
alice 2.0 1e-6
bob
carol 0.5
`))
	if err != nil {
		t.Fatal(err)
	}
	want := []KeyConfig{
		{Key: "alice", EpsilonCap: 2.0, DeltaCap: 1e-6},
		{Key: "bob"},
		// An ε-only line inherits the global δ cap (DeltaCap -1), so it
		// stays usable under zcdp accounting.
		{Key: "carol", EpsilonCap: 0.5, DeltaCap: -1},
	}
	if len(keys) != len(want) {
		t.Fatalf("parsed %d keys, want %d", len(keys), len(want))
	}
	for i, k := range keys {
		if k != want[i] {
			t.Fatalf("key %d: %+v, want %+v", i, k, want[i])
		}
	}
	envKeys, err := ParseAPIKeysEnv("alice:2.0:1e-6, bob ,carol:0.5")
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range envKeys {
		if k != want[i] {
			t.Fatalf("env key %d: %+v, want %+v", i, k, want[i])
		}
	}
	for _, bad := range []string{"dup 1\ndup 2", "key -1", "key 1 2", "a b c d"} {
		if _, err := ParseAPIKeys(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	if _, err := ParseAPIKeysEnv("k:1:2:3"); err == nil {
		t.Error("accepted 4-field env entry")
	}
	// Server construction rejects duplicates and empties too.
	if _, err := New(Config{EpsilonCap: 1, APIKeys: []KeyConfig{{Key: "a"}, {Key: "a"}}}); err == nil {
		t.Error("duplicate API keys accepted")
	}
	if _, err := New(Config{EpsilonCap: 1, APIKeys: []KeyConfig{{Key: ""}}}); err == nil {
		t.Error("empty API key accepted")
	}
	if _, err := New(Config{EpsilonCap: 1, Composition: "renyi"}); err == nil {
		t.Error("unknown composition accepted")
	}
}

// TestInfiniteCapRefused: an infinite ε cap, global or per key, is refused
// when the server is configured. Accepted, every release was charged and
// then answered 500, because its budget tail could not encode +Inf.
func TestInfiniteCapRefused(t *testing.T) {
	for _, bad := range []string{"k inf", "k +Inf 1e-6", "k NaN"} {
		if _, err := ParseAPIKeys(strings.NewReader(bad)); err == nil {
			t.Errorf("api key file %q accepted", bad)
		}
	}
	if _, err := ParseAPIKeysEnv("k:inf"); err == nil {
		t.Error("api key entry k:inf accepted")
	}
	if _, err := New(Config{EpsilonCap: math.Inf(1)}); err == nil {
		t.Error("+Inf global epsilon cap accepted")
	}
	if _, err := New(Config{EpsilonCap: 1, APIKeys: []KeyConfig{{Key: "k", EpsilonCap: math.Inf(1), DeltaCap: -1}}}); err == nil {
		t.Error("+Inf per-key epsilon cap accepted")
	}
}

// TestWriteJSONEncodeFailure: a response value that cannot be encoded is
// answered 500 with an error body, not its own status with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, budgetJSON{EpsilonCap: math.Inf(1)})
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || body.Error == "" {
		t.Fatalf("status %d, body %q (%v): want 500 with an error", rec.Code, rec.Body, err)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, healthResponse{Status: "ok"})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"status\":\"ok\"}\n" {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body)
	}
}

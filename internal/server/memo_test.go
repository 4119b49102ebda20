package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// otherNDJSON is testNDJSON's schema over different rows: a second
// snapshot that shares every plan with the first.
func otherNDJSON(t *testing.T) string {
	t.Helper()
	header, _, _ := strings.Cut(testNDJSON(t), "\n")
	var b strings.Builder
	b.WriteString(header + "\n")
	for i := 0; i < 250; i++ {
		fmt.Fprintf(&b, "[%d,%d,%d]\n", (i/5)%3, i%2, (i/3)%4)
	}
	return b.String()
}

// withoutBudget is a release response minus its running budget block, the
// one field that depends on how many releases the ledger saw before.
func withoutBudget(t *testing.T, rec *httptest.ResponseRecorder) map[string]string {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("release: %d %s", rec.Code, rec.Body.String())
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "budget")
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = string(v)
	}
	return out
}

func sameResponse(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: response shape differs: %d vs %d fields", what, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: field %q differs from a memo-free server:\n%s\n%s", what, k, got[k], v)
		}
	}
}

func planCacheMetrics(t *testing.T, s *Server) planCacheJSON {
	t.Helper()
	var m struct {
		PlanCache planCacheJSON `json:"plan_cache"`
	}
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/v1/metrics").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	return m.PlanCache
}

// TestAnswerMemoServerBitIdentical: a dataset release whose exact answers
// come from the memo is byte-identical to the same request on a fresh
// server, for every strategy, the cube and synthetic data, at a server
// worker bound of 1 and 2. Each server first releases over a second
// dataset with the same plans, so a memo that ignored the input identity
// would answer from the wrong snapshot.
func TestAnswerMemoServerBitIdentical(t *testing.T) {
	type endpoint struct {
		path      string
		overrides map[string]any
	}
	var eps []endpoint
	for _, strat := range []string{"fourier", "workload", "cluster", "identity"} {
		eps = append(eps, endpoint{"/v1/release", map[string]any{"strategy": strat}})
	}
	eps = append(eps,
		endpoint{"/v1/cube", map[string]any{"max_order": 2}},
		endpoint{"/v1/synthetic", map[string]any{"synthetic_seed": int64(3)}})
	for _, ep := range eps {
		for _, workers := range []int{1, 2} {
			what := fmt.Sprintf("%s %v workers=%d", ep.path, ep.overrides, workers)
			body := func(id string, seed int64) map[string]any {
				b := datasetBody(id, ep.overrides)
				b["seed"] = seed
				return b
			}
			cfg := testConfig()
			cfg.MaxWorkers = workers
			memo := newTestServer(t, cfg)
			fresh := newTestServer(t, cfg)
			for _, s := range []*Server{memo, fresh} {
				if rec := putDataset(t, s, "people", testNDJSON(t)); rec.Code != http.StatusCreated {
					t.Fatalf("PUT: %d %s", rec.Code, rec.Body.String())
				}
			}
			if rec := putDataset(t, memo, "other", otherNDJSON(t)); rec.Code != http.StatusCreated {
				t.Fatalf("PUT other: %d %s", rec.Code, rec.Body.String())
			}
			withoutBudget(t, post(t, memo, ep.path, body("other", 1)))
			for _, seed := range []int64{2, 3} {
				got := withoutBudget(t, post(t, memo, ep.path, body("people", seed)))
				want := withoutBudget(t, post(t, fresh, ep.path, body("people", seed)))
				sameResponse(t, what, got, want)
			}
			if ep.overrides["strategy"] != "identity" {
				if pc := planCacheMetrics(t, memo); pc.AnswerHits != 1 || pc.AnswerMisses != 2 {
					t.Errorf("%s: answer hits/misses %d/%d, want 1/2", what, pc.AnswerHits, pc.AnswerMisses)
				}
			}
		}
	}
}

// TestAnswerMemoServerAppend: after an append, a release over the grown
// dataset equals a fresh server's release over the combined upload, even
// though the same plan was memoised over the pre-append snapshot.
func TestAnswerMemoServerAppend(t *testing.T) {
	ndjson := testNDJSON(t)
	header, _, _ := strings.Cut(ndjson, "\n")
	delta := "[2,1,3]\n[2,1,3]\n[0,0,0]\n"
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "people", ndjson); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body.String())
	}
	withoutBudget(t, post(t, s, "/v1/release", datasetBody("people", map[string]any{"seed": 1})))
	if rec := putDatasetMode(t, s, "people", "append", header+"\n"+delta); rec.Code != http.StatusCreated {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	fresh := newTestServer(t, testConfig())
	if rec := putDataset(t, fresh, "people", ndjson+delta); rec.Code != http.StatusCreated {
		t.Fatalf("combined PUT: %d %s", rec.Code, rec.Body.String())
	}
	body := datasetBody("people", map[string]any{"seed": 2})
	sameResponse(t, "after append",
		withoutBudget(t, post(t, s, "/v1/release", body)),
		withoutBudget(t, post(t, fresh, "/v1/release", body)))
	if pc := planCacheMetrics(t, s); pc.AnswerHits != 0 || pc.AnswerMisses != 2 {
		t.Errorf("answer hits/misses %d/%d, want 0/2", pc.AnswerHits, pc.AnswerMisses)
	}
}

// TestAnswerMemoInlineBypass: inline rows never reach the memo, and the
// Prometheus exposition carries the memo counters.
func TestAnswerMemoInlineBypass(t *testing.T) {
	s := newTestServer(t, testConfig())
	for seed := 1; seed <= 2; seed++ {
		withoutBudget(t, post(t, s, "/v1/release", testBody(map[string]any{"seed": seed})))
	}
	if pc := planCacheMetrics(t, s); pc.AnswerHits+pc.AnswerMisses != 0 {
		t.Errorf("inline rows consulted the memo: %d/%d", pc.AnswerHits, pc.AnswerMisses)
	}
	scrape := do(t, s, http.MethodGet, "/v1/metrics?format=prometheus").Body.String()
	for _, want := range []string{"dpcubed_plan_cache_answer_hits_total 0", "dpcubed_plan_cache_answer_misses_total 0"} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

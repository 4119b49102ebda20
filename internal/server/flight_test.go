package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes — the flight
// tests line goroutines up on observable state, never on sleeps alone.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// herdEndpoints are the release-shaped endpoints with the per-endpoint
// request fields each needs.
var herdEndpoints = []struct {
	path string
	over map[string]any
}{
	{"/v1/release", nil},
	{"/v1/synthetic", map[string]any{"synthetic_seed": 11}},
	{"/v1/cube", map[string]any{"max_order": 2}},
}

// TestCoalescedHerdChargesOnce is the acceptance criterion end to end, on
// every release-shaped endpoint: N concurrent identical cold dataset-backed
// requests produce one pipeline execution, one ledger charge, and N
// byte-identical payloads; the other N−1 count as coalesced in /v1/metrics.
func TestCoalescedHerdChargesOnce(t *testing.T) {
	const n = 6
	for _, ep := range herdEndpoints {
		t.Run(strings.TrimPrefix(ep.path, "/v1/"), func(t *testing.T) {
			s := newTestServer(t, testConfig())
			if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
				t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
			}
			var (
				keyCh   = make(chan string, 1)
				proceed = make(chan struct{})
				regOnce sync.Once
			)
			s.results.Barrier = func(key string) {
				regOnce.Do(func() { keyCh <- key })
				<-proceed
			}
			recs := make([]*httptest.ResponseRecorder, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					recs[i] = post(t, s, ep.path, datasetBody("d1", ep.over))
				}(i)
			}
			key := <-keyCh
			// Every follower must be parked on the leader's flight before it
			// runs: the herd is fully assembled, no request can sneak a
			// second execution.
			waitFor(t, "herd to assemble", func() bool { return s.results.Waiting(key) == n-1 })
			close(proceed)
			wg.Wait()
			for i, rec := range recs {
				if rec.Code != http.StatusOK {
					t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body.String())
				}
				if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
					t.Fatalf("request %d payload differs from request 0", i)
				}
			}
			if l := s.Ledger(); l.Count() != 1 {
				t.Fatalf("herd of %d charged the ledger %d times, want 1", n, l.Count())
			}
			if got := s.coalesced.Value(); got != n-1 {
				t.Fatalf("coalesced counter = %d, want %d", got, n-1)
			}
			m := decode[metricsResponse](t, do(t, s, http.MethodGet, "/v1/metrics"))
			if m.Coalesced != n-1 {
				t.Fatalf("metrics coalesced_requests = %d, want %d", m.Coalesced, n-1)
			}
			// The herd settled into one cached payload: a straggler is a
			// plain hit.
			if rec := post(t, s, ep.path, datasetBody("d1", ep.over)); rec.Code != http.StatusOK ||
				!bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
				t.Fatalf("straggler after the herd: %d", rec.Code)
			}
			if l := s.Ledger(); l.Count() != 1 {
				t.Fatal("straggler recharged the ledger")
			}
		})
	}
}

// TestInvalidRequestPlansNothing: validation runs before the Releaser
// lookup, so a refused request on a never-seen cluster workload — whose
// pre-plan is a full greedy search — is a 400 that neither plans nor
// registers (and so cannot evict) a Releaser.
func TestInvalidRequestPlansNothing(t *testing.T) {
	s := newTestServer(t, testConfig())
	before := s.CacheStats()
	body := testBody(map[string]any{"epsilon": 0, "strategy": "cluster", "workload": map[string]any{"k": 2}})
	for _, path := range []string{"/v1/release", "/v1/synthetic"} {
		if rec := post(t, s, path, body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: epsilon 0 got %d %s, want 400", path, rec.Code, rec.Body.String())
		}
	}
	if after := s.CacheStats(); after.Misses != before.Misses || after.Entries != before.Entries {
		t.Fatalf("refused requests planned: plan cache %+v -> %+v", before, after)
	}
	s.mu.Lock()
	n := len(s.releasers)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("refused requests registered %d Releasers, want 0", n)
	}
}

// TestCubeKeyIgnoresUnreadFields: /v1/cube reads neither the workload nor
// skip_consistency, so two cube requests differing only there share one
// cache entry — the second is a hit and the ledger is charged once.
func TestCubeKeyIgnoresUnreadFields(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	first := post(t, s, "/v1/cube", datasetBody("d1", map[string]any{"max_order": 2}))
	if first.Code != http.StatusOK {
		t.Fatalf("first cube: %d %s", first.Code, first.Body.String())
	}
	second := post(t, s, "/v1/cube", datasetBody("d1", map[string]any{
		"max_order": 2, "workload": map[string]any{"k": 2}, "skip_consistency": true,
	}))
	if second.Code != http.StatusOK {
		t.Fatalf("second cube: %d %s", second.Code, second.Body.String())
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cube requests differing only in unread fields returned different bytes")
	}
	if st := s.results.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss", st)
	}
	if l := s.Ledger(); l.Count() != 1 {
		t.Fatalf("ledger charged %d times, want 1", l.Count())
	}
}

// TestFailFlightChargeFraming: the retained-charge contract is the
// leader's alone — a follower inheriting a leader-side failure reports the
// bare error, because its own budget was never touched.
func TestFailFlightChargeFraming(t *testing.T) {
	s := newTestServer(t, testConfig())
	req := &releaseRequest{Epsilon: 1}
	wrapped := retainedChargeError{errors.New("engine fault")}

	lead := httptest.NewRecorder()
	s.failFlight(lead, httptest.NewRequest(http.MethodPost, "/v1/release", nil), wrapped, req, true)
	if lead.Code != http.StatusInternalServerError || !strings.Contains(lead.Body.String(), "retained") {
		t.Fatalf("leader failure: %d %s, want 500 with the retained-charge contract", lead.Code, lead.Body.String())
	}

	follow := httptest.NewRecorder()
	s.failFlight(follow, httptest.NewRequest(http.MethodPost, "/v1/release", nil), wrapped, req, false)
	if follow.Code != http.StatusInternalServerError || strings.Contains(follow.Body.String(), "retained") {
		t.Fatalf("follower failure: %d %s, want 500 withOUT the retained-charge framing", follow.Code, follow.Body.String())
	}

	// Cancellations keep their 499 through the wrapper.
	if got := statusCode(retainedChargeError{context.Canceled}); got != statusClientClosedRequest {
		t.Fatalf("wrapped cancellation mapped to %d, want %d", got, statusClientClosedRequest)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// releaserKeys lists the server's registered Releaser keys.
func releaserKeys(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.releasers))
	for k := range s.releasers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// payloadOf is a release-shaped response body up to its spliced budget:
// the cached bytes, without the per-request fields.
func payloadOf(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.LastIndex(body, []byte(`,"budget":`))
	if i < 0 {
		t.Fatalf("response has no budget field: %s", body)
	}
	return body[:i]
}

// TestHitResolvesNoReleaser: a result-cache hit replays its payload without
// resolving a Releaser. With room for one Releaser, warming key B evicts
// key A's; replaying A is then a hit with A's exact payload, and A's
// Releaser is not rebuilt.
func TestHitResolvesNoReleaser(t *testing.T) {
	cfg := testConfig()
	cfg.MaxReleasers = 1
	s := newTestServer(t, cfg)
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	a := datasetBody("d1", map[string]any{"workload": map[string]any{"k": 1}})
	b := datasetBody("d1", map[string]any{"workload": map[string]any{"k": 2}})
	first := post(t, s, "/v1/release", a)
	if first.Code != http.StatusOK {
		t.Fatalf("warm A: %d %s", first.Code, first.Body.String())
	}
	keyA := releaserKeys(s)
	if rec := post(t, s, "/v1/release", b); rec.Code != http.StatusOK {
		t.Fatalf("warm B: %d %s", rec.Code, rec.Body.String())
	}
	keyB := releaserKeys(s)
	if len(keyA) != 1 || len(keyB) != 1 || keyA[0] == keyB[0] {
		t.Fatalf("Releasers after A %q, after B %q: want B's to have evicted A's", keyA, keyB)
	}
	replay := post(t, s, "/v1/release", a)
	if replay.Code != http.StatusOK {
		t.Fatalf("replay A: %d %s", replay.Code, replay.Body.String())
	}
	if !bytes.Equal(payloadOf(t, replay.Body.Bytes()), payloadOf(t, first.Body.Bytes())) {
		t.Fatalf("replayed A differs from its miss:\n%s\nvs\n%s", replay.Body.String(), first.Body.String())
	}
	if st := s.results.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache stats %+v, want 1 hit / 2 misses", st)
	}
	if got := releaserKeys(s); len(got) != 1 || got[0] != keyB[0] {
		t.Fatalf("Releasers after the replay %q, want only B's %q: the hit rebuilt A's", got, keyB)
	}
	if l := s.Ledger(); l.Count() != 2 {
		t.Fatalf("ledger charged %d times, want 2 (the hit is free)", l.Count())
	}
}

// workloadErrorCases are workload specs the Releaser step refuses, with the
// status and message every request carrying one answers.
var workloadErrorCases = []struct {
	name     string
	workload map[string]any
	msg      string
}{
	{"anchor-high", map[string]any{"k": 1, "anchor": 5}, "repro: invalid option: anchor 5 out of range"},
	{"anchor-negative", map[string]any{"k": 1, "anchor": -1}, "repro: invalid option: anchor -1 out of range"},
	{"k-zero", map[string]any{"k": 0}, "repro: invalid option: workload needs k in [1,3] or explicit marginals"},
	{"k-above-d", map[string]any{"k": 4}, "repro: invalid option: workload needs k in [1,3] or explicit marginals"},
	{"attr-out-of-range", map[string]any{"marginals": [][]int{{0, 3}}}, "repro: invalid option: repro: attribute index 3 out of range"},
	{"no-marginals", map[string]any{"marginals": [][]int{}}, "repro: invalid option: workload has no marginals"},
}

// TestWorkloadErrorsKeepStatusAndMessage: resolving the Releaser inside
// the result cache's flight changes no refusal. Every bad workload is the
// same 400 with the same message, inline and by dataset_id (with the
// dataset's cache warm), charges nothing and registers no Releaser;
// duplicate marginal sets stay accepted. A herd of identical bad requests
// gets the same bare 400 on every member, leader and followers alike.
func TestWorkloadErrorsKeepStatusAndMessage(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, s, "/v1/release", datasetBody("d1", nil)); rec.Code != http.StatusOK {
		t.Fatalf("warm: %d %s", rec.Code, rec.Body.String())
	}
	charges, releasers := s.Ledger().Count(), len(releaserKeys(s))
	for _, tc := range workloadErrorCases {
		for _, path := range []string{"/v1/release", "/v1/synthetic"} {
			over := map[string]any{"workload": tc.workload}
			for source, body := range map[string]map[string]any{
				"inline":  testBody(over),
				"dataset": datasetBody("d1", over),
			} {
				rec := post(t, s, path, body)
				got := decode[errorResponse](t, rec)
				if rec.Code != http.StatusBadRequest || got.Error != tc.msg {
					t.Errorf("%s %s %s: %d %q, want 400 %q", tc.name, path, source, rec.Code, got.Error, tc.msg)
				}
			}
		}
	}
	if n := s.Ledger().Count(); n != charges {
		t.Fatalf("refused workloads charged the ledger: %d -> %d", charges, n)
	}
	if n := len(releaserKeys(s)); n != releasers {
		t.Fatalf("refused workloads registered Releasers: %d -> %d", releasers, n)
	}

	dup := map[string]any{"workload": map[string]any{"marginals": [][]int{{0, 1}, {1, 0}}}}
	for source, body := range map[string]map[string]any{"inline": testBody(dup), "dataset": datasetBody("d1", dup)} {
		rec := post(t, s, "/v1/release", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("duplicate marginal sets %s: %d %s, want 200", source, rec.Code, rec.Body.String())
		}
		if got := decode[releaseResponse](t, rec); len(got.Tables) != 2 {
			t.Fatalf("duplicate marginal sets %s: %d tables, want 2", source, len(got.Tables))
		}
	}

	// A herd on one bad cold key: the leader's refusal reaches every
	// follower bare — nothing was charged, so nothing is retained.
	const n = 4
	bad := datasetBody("d1", map[string]any{"workload": workloadErrorCases[0].workload})
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
			recs[i] = post(t, s, "/v1/release", bad)
		}(i)
	}
	var key string
	select {
	case key = <-keyCh:
	case <-time.After(5 * time.Second):
		close(proceed)
		t.Fatal("no flight started: the bad workload was refused outside the result cache")
	}
	waitFor(t, "herd to assemble", func() bool { return s.results.Waiting(key) == n-1 })
	close(proceed)
	wg.Wait()
	for i, rec := range recs {
		if got := decode[errorResponse](t, rec); rec.Code != http.StatusBadRequest || got.Error != workloadErrorCases[0].msg {
			t.Fatalf("herd member %d: %d %q, want 400 %q", i, rec.Code, got.Error, workloadErrorCases[0].msg)
		}
	}
}

// TestWorkloadSuccessIsAFunctionOfReleaserKey pins the invariant that lets
// a hit skip the Releaser step: whether a request's workload resolves
// depends only on its releaserKey. The result key embeds the releaserKey,
// so a request whose workload fails can never find a cached payload and
// always reaches the step that refuses it. Marginal sets are permuted
// within sets (the key sorts them) and across sets (the key keeps set
// order); both must agree.
func TestWorkloadSuccessIsAFunctionOfReleaserKey(t *testing.T) {
	schema, err := repro.NewSchema([]repro.Attribute{
		{Name: "a", Cardinality: 2}, {Name: "b", Cardinality: 3},
		{Name: "c", Cardinality: 2}, {Name: "d", Cardinality: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := len(schema.Attrs)
	rng := rand.New(rand.NewSource(3))
	ok := map[string]bool{}
	check := func(req *releaseRequest, spec string) bool {
		t.Helper()
		key := releaserKey(schema, req, repro.StrategyFourier)
		_, err := workloadOf(schema, req.Workload)
		if prev, seen := ok[key]; seen && prev != (err == nil) {
			t.Fatalf("%s: key %q resolves %v here but %v for an earlier spec", spec, key, err == nil, prev)
		}
		ok[key] = err == nil
		return err == nil
	}
	for trial := 0; trial < 400; trial++ {
		sets := make([][]int, rng.Intn(4))
		for i := range sets {
			sets[i] = make([]int, rng.Intn(4))
			for j := range sets[i] {
				sets[i][j] = rng.Intn(d+2) - 1
			}
		}
		first := check(&releaseRequest{Workload: workloadJSON{Marginals: sets}}, "marginals "+mustJSON(t, sets))
		for p := 0; p < 6; p++ {
			perm := make([][]int, len(sets))
			for i, j := range rng.Perm(len(sets)) {
				perm[i] = append([]int(nil), sets[j]...)
				rng.Shuffle(len(perm[i]), func(a, b int) { perm[i][a], perm[i][b] = perm[i][b], perm[i][a] })
			}
			if check(&releaseRequest{Workload: workloadJSON{Marginals: perm}}, "marginals "+mustJSON(t, perm)) != first {
				t.Fatalf("marginals %s and their permutation %s disagree", mustJSON(t, sets), mustJSON(t, perm))
			}
		}
		anchor := rng.Intn(d+2) - 1
		wl := workloadJSON{K: rng.Intn(d+3) - 1, Star: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			wl.Anchor = &anchor
		}
		check(&releaseRequest{Workload: wl}, "k="+strconv.Itoa(wl.K))
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestSplicedResponseFraming: every release-shaped response, miss and hit,
// goes out with a Content-Length equal to its body — the 1 MB synthetic
// body included — and the hit's bytes equal the miss's.
func TestSplicedResponseFraming(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	putBenchDataset(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/release", datasetBody("d1", nil)},
		{"/v1/cube", datasetBody("d1", map[string]any{"max_order": 2})},
		{"/v1/synthetic", datasetBody("d1", map[string]any{"synthetic_seed": 11})},
		{"/v1/synthetic", datasetBody("bench", benchSyntheticOverrides)},
	} {
		raw := []byte(mustJSON(t, tc.body))
		var bodies [2][]byte
		for i, outcome := range []string{"miss", "hit"} {
			resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: %d %s", tc.path, outcome, resp.StatusCode, body)
			}
			if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Fatalf("%s %s: Content-Length %d, transfer encoding %q, for a %d-byte body",
					tc.path, outcome, resp.ContentLength, resp.TransferEncoding, len(body))
			}
			if !json.Valid(body) || !strings.HasSuffix(string(body), "}\n") {
				t.Fatalf("%s %s: malformed body", tc.path, outcome)
			}
			bodies[i] = body
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("%s: hit differs from miss", tc.path)
		}
	}
	if st := s.results.Stats(); st.Hits != 4 || st.Misses != 4 {
		t.Fatalf("cache stats %+v, want 4 hits / 4 misses", st)
	}
}

// TestCachedHitAllocationFlatInPayloadSize: a hit writes the cached payload
// in place, so the bytes it allocates do not grow with the payload — a
// ~1 MB synthetic hit allocates under 64 KiB, not a copy of its body.
func TestCachedHitAllocationFlatInPayloadSize(t *testing.T) {
	s := newTestServer(t, testConfig())
	putBenchDataset(t, s)
	raw := []byte(mustJSON(t, datasetBody("bench", benchSyntheticOverrides)))
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		rec.Body = nil // drop the body: the recorder must not buffer 1 MB per hit
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/synthetic", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("synthetic: %d", rec.Code)
		}
		return rec
	}
	size, err := strconv.Atoi(serve().Header().Get("Content-Length"))
	if err != nil || size < 768<<10 {
		t.Fatalf("synthetic body is %d bytes (%v), want about 1 MB", size, err)
	}
	const hits = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	if st := s.results.Stats(); st.Hits != hits {
		t.Fatalf("cache stats %+v, want %d hits", st, hits)
	}
	if perHit := (after.TotalAlloc - before.TotalAlloc) / hits; perHit >= 64<<10 {
		t.Fatalf("a hit on a %d-byte payload allocates %d bytes, want < 64 KiB", size, perHit)
	}
}

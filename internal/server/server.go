// Package server is the JSON-over-HTTP serving layer over the repro
// service API: a long-lived process holding one Releaser per
// (schema, workload, mechanism) key, one shared plan cache across all of
// them, a budget-ledger registry enforcing per-tenant and global (ε, δ)
// caps, and one dataset store for the upload-once / release-many flow.
//
// Endpoints:
//
//	PUT    /v1/datasets/{id} — ingest a dataset as streaming NDJSON
//	                           (?mode=append sums a delta stream into it)
//	GET    /v1/datasets      — list resident datasets
//	GET    /v1/datasets/{id} — describe one dataset
//	DELETE /v1/datasets/{id} — remove a dataset (in-flight releases finish)
//	POST   /v1/release       — private marginals (rows, counts or dataset_id)
//	POST   /v1/cube          — private datacube (all cuboids up to max_order)
//	POST   /v1/synthetic     — release + row-level synthetic microdata
//	GET    /v1/budget        — the caller's privacy spend against its cap
//	GET    /v1/metrics       — request/error counters, spend, cache, store
//	GET    /v1/healthz       — liveness (unauthenticated)
//	GET    /v1/readyz        — readiness (unauthenticated; 503 while draining)
//
// PUT /v1/datasets accepts Content-Encoding: gzip; a corrupt stream is
// rejected transactionally, like any malformed NDJSON.
//
// Release-shaped requests carry their data as exactly one of rows (tuples
// in the body), counts (the full contingency vector) or dataset_id (a
// previously ingested dataset — the serving shape for real traffic, where
// request bodies stop hauling the relation around). The heavy,
// privacy-independent planning work is keyed on (schema, workload,
// strategy) and amortised across requests through the shared PlanCache.
//
// # Exact-answer memo
//
// Each cached plan also keeps the exact strategy answers S·x of its last
// release over a dataset snapshot (engine.PlanCache). Three points:
//
//   - The memo key is (plan, frozen-input identity). Dataset snapshots are
//     frozen at install; inline rows and counts never are, so they always
//     recompute. ε, δ and the seed stay out of the key: a release over an
//     unchanged snapshot copies S·x and only draws fresh noise, charges
//     the ledger as usual and is byte-identical to a recomputed one.
//   - Invalidation is by identity. An append or replace installs a new
//     snapshot vector, so the next release misses; the memo holds its
//     input only weakly and never keeps a superseded snapshot alive.
//   - The memos hold at most engine.MaxAnswerMemoBytes in total.
//
// The measure stage span carries answers=memo|computed, and /v1/metrics
// reports plan_cache.answer_hits/answer_misses
// (dpcubed_plan_cache_answer_{hits,misses}_total). Timing exposure: a
// faster measure stage reveals only that the same plan already ran over
// the same snapshot — query history, never data values — which is the
// exposure the result cache's rescache=hit annotation already has.
//
// # Multi-tenant budget accounting
//
// With Config.APIKeys set, every request must present a known key in an
// X-API-Key header (or Authorization: Bearer); an unknown or missing key
// is 401. Each key spends against its own ledger — per-key caps from the
// key file, or the global caps by default — while the global cap still
// binds across all of them: a charge is admitted by both ledgers or by
// neither, so one tenant's 429 never consumes (or unblocks) another's
// budget. GET /v1/budget answers with the caller's own spend plus the
// global view, and /v1/metrics breaks spend out per key. Without APIKeys
// the server runs single-tenant against the global ledger, as before.
//
// How charges compose is configurable (Config.Composition): "basic" sums
// (ε, δ) with parallel composition across partitions; "zcdp" converts
// each charge to a zCDP ρ, sums, and reports the tight (ε, δ) at
// Config.TargetDelta — long sequences of small Gaussian releases then fit
// under caps that plain summation would exhaust.
//
// The charge-at-admission contract: every release charges its (ε, δ)
// atomically BEFORE the mechanism runs — concurrent requests can never
// jointly pass a cap, and a refused request (429) spends nothing and
// never touches the data. The flip side is deliberate: a charge admitted
// for a release that then fails (client disconnect → 499, engine fault →
// 500) is retained, because noise may already have been drawn against the
// data by the time the failure surfaces. The error body says so
// explicitly. Requests that fail validation (400) are always free —
// validation runs before admission, and before the request plans, registers
// a Releaser or touches the result cache. Ingestion is free too: PUT
// /v1/datasets never charges a ledger; privacy is spent when answers
// leave, not when data arrives.
//
// # Single-flight coalescing
//
// Every release-shaped endpoint runs one flow (serveRelease) whose one
// caching call is rescache.Cache.Do. A request that misses the result
// cache enters a single-flight keyed on the same request key: the first
// request in (the
// leader) charges and runs the pipeline while concurrent identical
// requests (followers) wait and share its payload — a cold-cache
// thundering herd costs ONE execution and ONE ledger charge, and every
// caller receives byte-identical tables. Cancellation stays per waiter: a
// follower whose client disconnects detaches (499) without disturbing the
// leader, and a follower whose leader was cancelled retries as (or behind)
// a fresh leader rather than inheriting someone else's 499. Followers
// never charge, so a leader-side failure reaches them without the
// retained-charge framing. Coalesced requests increment
// dpcubed_coalesced_requests_total ("coalesced_requests" in /v1/metrics
// JSON) and annotate their trace root with flight=coalesced plus a
// flight.wait span; requests without a cacheable key (inline rows/counts)
// bypass the flight entirely.
//
// With persistence (Config.StoreDir), every ledger's charge history is
// snapshotted through the store codec — on Close, and periodically via
// FlushLedgers when the embedder calls it — and replayed on startup, so
// per-key spend survives a graceful restart. A crash loses every charge
// since the last snapshot; the daemon takes none between startup and
// shutdown unless -plan-flush is set, so after a crash under the default
// the spend is back where the last graceful shutdown left it. A corrupt
// ledger snapshot refuses startup rather than silently handing tenants a
// fresh budget.
//
// Typed errors from the repro package map onto status codes: invalid
// parameters (ErrInvalidEpsilon, ErrInvalidDelta, ErrDimensionMismatch,
// ErrInvalidOption, ErrInvalidDataset) are 400, an unknown dataset is 404,
// ErrBudgetExhausted is 429, a full store is 507, a cancelled request
// context is 499 (client closed request, nobody is listening anyway), and
// anything else is 500.
//
// # Observability
//
// Every routed request is assigned a correlation ID: a well-formed
// inbound X-Request-Id header is honored, anything else gets a generated
// 16-hex ID. The ID is echoed in the X-Request-Id response header, in
// error bodies ("request_id") and in the structured request log.
//
// With Config.Logger set, each request emits one log/slog record:
// method, path, status, duration_ms, request_id, and (when
// authenticated) api_key — always the redactKey fingerprint, never the
// raw credential. Logs and metrics never contain cell counts, noisy
// answers or raw keys.
//
// GET /v1/metrics serves JSON counters plus "latency" (per-endpoint
// p50/p95/p99/mean, bucket-derived) and "stages" (per engine stage:
// plan, allocate, measure, recover, consist) sections; with
// ?format=prometheus it serves the same registry in Prometheus text
// format v0.0.4. Metric families: dpcubed_requests_total,
// dpcubed_request_errors_total and dpcubed_request_duration_seconds
// (label endpoint), dpcubed_stage_duration_seconds (label stage),
// budget/cache/store gauges (dpcubed_budget_*, dpcubed_plan_cache_*,
// dpcubed_rescache_*, dpcubed_datasets_resident,
// dpcubed_dataset_resident_bytes, dpcubed_inflight_requests) and Go
// runtime stats (go_goroutines, go_heap_alloc_bytes,
// go_gc_pause_seconds_total, ...).
//
// A release-shaped request may set "debug_timing": true to receive a
// "timing" field: the release's span tree (stage durations, shard
// fan-out, result-cache verdict).
// For example:
//
//	POST /v1/release
//	{"dataset_id":"people","workload":{"k":2},"epsilon":0.5,
//	 "seed":1,"debug_timing":true}
//
// answers with the usual tables plus
//
//	"timing":{"name":"release","duration_ms":12.3,
//	          "attrs":{"rescache":"miss"},
//	          "spans":[{"name":"plan","duration_ms":1.1}, ...]}
//
// Timing is spliced per response, like budget: cached payloads never
// embed it, and it never enters the result-cache key because it never
// changes a released bit.
package server

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/accountant"
	"repro/internal/rescache"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// Config sizes the server.
type Config struct {
	// EpsilonCap / DeltaCap bound the ledger's cumulative spend (required:
	// EpsilonCap > 0, DeltaCap in [0, 1); a zero DeltaCap admits only
	// pure-DP requests).
	EpsilonCap float64
	DeltaCap   float64
	// MaxWorkers bounds every release's engine parallelism. 0 means all
	// CPUs. Releases are bit-identical at every setting.
	MaxWorkers int
	// CacheSize bounds the shared plan cache (0 = default).
	CacheSize int
	// ResultCacheSize bounds the release-result cache: rendered responses
	// for dataset-backed release/cube/synthetic requests, served on repeat
	// without re-running the engine or re-charging the ledger (a hit is
	// free post-processing of the already-paid noised output). 0 = default
	// (rescache.DefaultSize); negative disables the cache.
	ResultCacheSize int
	// MaxReleasers bounds the Releaser registry (0 = default 256). The key
	// is client-controlled, so the registry must not grow without bound in
	// a long-lived daemon; an evicted entry costs only re-validation — its
	// warmed plan survives in the LRU plan cache.
	MaxReleasers int
	// MaxBodyBytes bounds request bodies (0 = 32 MiB).
	MaxBodyBytes int64
	// MaxIngestBytes bounds a PUT /v1/datasets stream (0 = unlimited).
	// Ingest memory does not grow with the stream: it is the schema's
	// 2^d-cell domain, capped at store.MaxDim bits, plus a bounded window
	// of in-flight batches. The body limit is a policy knob for ingest
	// work, not the memory guard.
	MaxIngestBytes int64
	// StoreDir enables dataset-snapshot (and warm-plan) persistence when
	// non-empty: a restarted server answers releases for previously
	// ingested datasets without re-upload.
	StoreDir string
	// MaxDatasets bounds the dataset registry (0 = unlimited); past it the
	// least-recently-used unpinned dataset is evicted on ingest.
	MaxDatasets int
	// APIKeys enables multi-tenant authentication when non-empty: every
	// request must present one of these keys (X-API-Key header or
	// Authorization: Bearer) and spends against that key's own ledger,
	// with the global (EpsilonCap, DeltaCap) still binding across all
	// keys. Empty runs the server single-tenant and unauthenticated.
	APIKeys []KeyConfig
	// Composition selects the ledger accounting: "basic" (default —
	// plain (ε, δ) summation with parallel composition) or "zcdp"
	// (Rényi/zCDP: charges convert to ρ, compose by summation, and spend
	// reports as the tight (ε, δ) at TargetDelta).
	Composition string
	// TargetDelta is the δ at which zcdp accounting reports composed ε
	// (0 = the DeltaCap). Ignored for basic.
	TargetDelta float64
	// Logger, when non-nil, receives one structured record per routed
	// request: method, path, status, duration, request ID, and — when
	// authenticated — the redacted API key. Nil disables request logging.
	Logger *slog.Logger
	// Metrics is the telemetry registry the server records into and
	// exposes (JSON latency/stage sections, ?format=prometheus). Nil gives
	// the server a private registry — the right default for tests and
	// embedders; dpcubed passes telemetry.Default() so the admin listener
	// shares it.
	Metrics *telemetry.Registry
}

const (
	defaultMaxBody      = 32 << 20
	defaultMaxReleasers = 256
)

// Server is the HTTP handler. Construct with New; it is safe for
// concurrent use.
type Server struct {
	cfg     Config
	ledgers *repro.BudgetRegistry
	keys    map[string]bool // valid API keys; empty map = auth disabled
	cache   *repro.PlanCache
	results *rescache.Cache // result memo + single-flight; nil when ResultCacheSize < 0
	store   *store.Store
	mux     *http.ServeMux
	relSeq  atomic.Uint64 // default ledger-label counter

	inflight atomic.Int64 // routed requests currently in a handler
	draining atomic.Bool  // readyz answers 503; Drain is waiting

	mu        sync.Mutex
	releasers map[string]*repro.Releaser
	order     []string // registry insertion order, for FIFO eviction

	tele      *telemetry.Registry
	log       *slog.Logger
	coalesced *telemetry.Counter // requests served by another request's flight

	metricNames []string
	metrics     map[string]*endpointMetrics
}

// endpointMetrics counts one route's traffic. The counters live in the
// telemetry registry (so Prometheus exposition sees them); the JSON
// /v1/metrics endpoint reads the same objects.
type endpointMetrics struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
}

// New validates the configuration and builds a ready-to-serve handler.
func New(cfg Config) (*Server, error) {
	comp, err := compositionFor(cfg)
	if err != nil {
		return nil, err
	}
	perKey := make(map[string]repro.BudgetKeyCaps, len(cfg.APIKeys))
	keys := make(map[string]bool, len(cfg.APIKeys))
	for _, kc := range cfg.APIKeys {
		if kc.Key == "" {
			return nil, fmt.Errorf("%w: empty API key", repro.ErrInvalidOption)
		}
		if keys[kc.Key] {
			// Construction errors land in logs and daemon stderr; only the
			// redactKey fingerprint may identify the credential (keyleak).
			return nil, fmt.Errorf("%w: duplicate API key %s", repro.ErrInvalidOption, redactKey(kc.Key))
		}
		keys[kc.Key] = true
		perKey[kc.Key] = kc.caps()
	}
	ledgers, err := repro.NewBudgetRegistry(cfg.EpsilonCap, cfg.DeltaCap, comp, perKey)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBody
	}
	if cfg.MaxReleasers <= 0 {
		cfg.MaxReleasers = defaultMaxReleasers
	}
	st, err := store.Open(store.Config{Dir: cfg.StoreDir, MaxDatasets: cfg.MaxDatasets})
	if err != nil {
		return nil, err
	}
	// Replay the previous process's privacy spend. Unlike plans (below), a
	// corrupt ledger snapshot refuses startup: serving with a silently
	// zeroed ledger would hand every tenant a fresh budget over the same
	// data.
	if _, err := st.LoadLedgers(ledgers); err != nil {
		return nil, err
	}
	tele := cfg.Metrics
	if tele == nil {
		tele = telemetry.NewRegistry()
	}
	telemetry.RegisterRuntimeMetrics(tele)
	s := &Server{
		cfg:       cfg,
		ledgers:   ledgers,
		keys:      keys,
		cache:     repro.NewPlanCacheSize(cfg.CacheSize),
		store:     st,
		releasers: map[string]*repro.Releaser{},
		tele:      tele,
		log:       cfg.Logger,
		metrics:   map[string]*endpointMetrics{},
	}
	s.coalesced = tele.Counter("dpcubed_coalesced_requests_total",
		"Requests answered by another identical request's in-flight execution.")
	if cfg.ResultCacheSize >= 0 {
		s.results = rescache.New(cfg.ResultCacheSize)
		// Any mutation under a dataset id — ingest, replace, append, delete
		// — drops that id's cached results. The version in the cache key is
		// the belt to this suspender: even without the hook a fresh install
		// could never be served a stale entry.
		st.SetChangeHook(s.results.InvalidateDataset)
	}
	// Warm plans from the previous process: a failure to load is a stale
	// snapshot, not a reason to refuse to serve.
	_, _ = st.LoadPlans(s.cache)
	s.mux = http.NewServeMux()
	s.route("POST /v1/release", s.handleRelease)
	s.route("POST /v1/cube", s.handleCube)
	s.route("POST /v1/synthetic", s.handleSynthetic)
	s.route("GET /v1/budget", s.handleBudget)
	s.route("GET /v1/metrics", s.handleMetrics)
	s.route("PUT /v1/datasets/{id}", s.handleDatasetPut)
	s.route("GET /v1/datasets/{id}", s.handleDatasetGet)
	s.route("DELETE /v1/datasets/{id}", s.handleDatasetDelete)
	s.route("GET /v1/datasets", s.handleDatasetList)
	// Health endpoints bypass authentication (and the metrics counters):
	// load balancers probe them without credentials, and a probe must
	// never burn an auth failure into the error counts.
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.registerCollectors()
	return s, nil
}

// registerCollectors exposes state whose source of truth lives outside the
// telemetry registry — ledgers, caches, the store — as gauges refreshed at
// scrape time. No per-request cost: the collector runs once per exposition.
func (s *Server) registerCollectors() {
	epsSpent := s.tele.Gauge("dpcubed_budget_epsilon_spent", "Global ledger epsilon spent.")
	epsRemaining := s.tele.Gauge("dpcubed_budget_epsilon_remaining", "Global ledger epsilon remaining under the cap.")
	releases := s.tele.Gauge("dpcubed_budget_releases_total", "Charges admitted to the global ledger.")
	planHits := s.tele.Gauge("dpcubed_plan_cache_hits_total", "Plan cache hits.")
	planMisses := s.tele.Gauge("dpcubed_plan_cache_misses_total", "Plan cache misses.")
	planEntries := s.tele.Gauge("dpcubed_plan_cache_entries", "Plans resident in the cache.")
	answerHits := s.tele.Gauge("dpcubed_plan_cache_answer_hits_total", "Releases whose exact strategy answers came from the answer memo.")
	answerMisses := s.tele.Gauge("dpcubed_plan_cache_answer_misses_total", "Answer-memo lookups that recomputed the exact strategy answers.")
	datasets := s.tele.Gauge("dpcubed_datasets_resident", "Datasets resident in the store.")
	datasetCells := s.tele.Gauge("dpcubed_dataset_cells", "Total contingency cells across resident datasets.")
	datasetBytes := s.tele.Gauge("dpcubed_dataset_resident_bytes", "Bytes of cell storage across resident datasets (12 per non-zero when sparse, 8 per cell when dense).")
	inflight := s.tele.Gauge("dpcubed_inflight_requests", "Routed requests currently in a handler.")
	var resHits, resMisses, resEntries *telemetry.Gauge
	if s.results != nil {
		resHits = s.tele.Gauge("dpcubed_rescache_hits_total", "Release-result cache hits.")
		resMisses = s.tele.Gauge("dpcubed_rescache_misses_total", "Release-result cache misses.")
		resEntries = s.tele.Gauge("dpcubed_rescache_entries", "Rendered responses resident in the result cache.")
	}
	s.tele.OnCollect(func() {
		g := s.ledgers.Global()
		eps, _ := g.Spent()
		er, _ := g.Remaining()
		epsSpent.Set(eps)
		epsRemaining.Set(er)
		releases.Set(float64(g.Count()))
		cs := s.cache.Stats()
		planHits.Set(float64(cs.Hits))
		planMisses.Set(float64(cs.Misses))
		planEntries.Set(float64(cs.Entries))
		answerHits.Set(float64(cs.AnswerHits))
		answerMisses.Set(float64(cs.AnswerMisses))
		st := s.store.Stats()
		datasets.Set(float64(st.Datasets))
		datasetCells.Set(float64(st.TotalCells))
		datasetBytes.Set(float64(st.ResidentBytes))
		inflight.Set(float64(s.inflight.Load()))
		if s.results != nil {
			rs := s.results.Stats()
			resHits.Set(float64(rs.Hits))
			resMisses.Set(float64(rs.Misses))
			resEntries.Set(float64(rs.Entries))
		}
	})
}

// compositionFor maps the wire name onto a ledger composition.
func compositionFor(cfg Config) (repro.Composition, error) {
	switch strings.ToLower(cfg.Composition) {
	case "", "basic":
		return repro.BasicComposition(), nil
	case "zcdp":
		target := cfg.TargetDelta
		if target == 0 {
			target = cfg.DeltaCap
		}
		return repro.ZCDPComposition(target)
	default:
		return nil, fmt.Errorf("%w: unknown composition %q (want basic or zcdp)", repro.ErrInvalidOption, cfg.Composition)
	}
}

// route registers a handler wrapped in authentication, per-endpoint
// counters and latency histograms, request-ID assignment and structured
// request logging; the pattern itself is the metrics key and the
// endpoint label.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	label := telemetry.Label{Key: "endpoint", Value: pattern}
	m := &endpointMetrics{
		requests: s.tele.Counter("dpcubed_requests_total", "Routed requests, by endpoint pattern.", label),
		errors:   s.tele.Counter("dpcubed_request_errors_total", "Responses with status >= 400, by endpoint pattern.", label),
		latency:  s.tele.Histogram("dpcubed_request_duration_seconds", "Request wall time, by endpoint pattern.", telemetry.LatencyBuckets(), label),
	}
	s.metricNames = append(s.metricNames, pattern)
	s.metrics[pattern] = m
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Inc()
		// The inflight count is what Drain waits on: a handler past this
		// line — possibly mid-release, about to charge a ledger — finishes
		// before the ledgers and plans are snapshotted. Health probes stay
		// off this path so a draining server can still answer them.
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		rid := requestID(r)
		r = r.WithContext(telemetry.ContextWithRequestID(r.Context(), rid))
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-Id", rid)
		key, err := s.authenticate(r)
		if err != nil {
			writeJSON(sw, http.StatusUnauthorized, errorResponse{Error: err.Error(), RequestID: rid})
		} else {
			h(sw, r.WithContext(withAPIKey(r.Context(), key)))
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		if status >= 400 {
			m.errors.Inc()
		}
		d := time.Since(start)
		m.latency.Observe(d.Seconds())
		s.logRequest(r, rid, key, status, d)
	})
}

// requestID resolves the request's correlation ID: a well-formed inbound
// X-Request-Id is honored (so a caller's ID follows the request through
// logs and spans), anything else gets a fresh one. The sanity check bounds
// length and rejects control/quote characters — the ID lands verbatim in
// response headers and structured logs.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); validRequestID(id) {
		return id
	}
	return telemetry.NewRequestID()
}

func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// logRequest emits one structured record per routed request. The API key
// is never logged raw — only its redactKey fingerprint, the same
// identifier /v1/metrics uses.
func (s *Server) logRequest(r *http.Request, rid, key string, status int, d time.Duration) {
	if s.log == nil {
		return
	}
	lvl := slog.LevelInfo
	switch {
	case status >= 500:
		lvl = slog.LevelError
	case status >= 400:
		lvl = slog.LevelWarn
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("duration_ms", float64(d)/float64(time.Millisecond)),
		slog.String("request_id", rid),
	}
	if key != "" {
		attrs = append(attrs, slog.String("api_key", redactKey(key)))
	}
	s.log.LogAttrs(r.Context(), lvl, "request", attrs...)
}

// authenticate resolves the caller's API key. With auth disabled every
// request maps to the anonymous key "" (the global, single-tenant ledger);
// with auth enabled a missing or unknown key is refused. The error never
// echoes the presented key.
func (s *Server) authenticate(r *http.Request) (string, error) {
	if len(s.keys) == 0 {
		return "", nil
	}
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if ah := r.Header.Get("Authorization"); strings.HasPrefix(ah, "Bearer ") {
			key = strings.TrimPrefix(ah, "Bearer ")
		}
	}
	if key == "" {
		return "", errors.New("missing API key (X-API-Key header or Authorization: Bearer)")
	}
	if !s.keys[key] {
		return "", errors.New("unknown API key")
	}
	return key, nil
}

// apiKeyCtx carries the authenticated key through the request context.
type apiKeyCtx struct{}

func withAPIKey(ctx context.Context, key string) context.Context {
	if key == "" {
		return ctx
	}
	return context.WithValue(ctx, apiKeyCtx{}, key)
}

func apiKeyFrom(ctx context.Context) string {
	key, _ := ctx.Value(apiKeyCtx{}).(string)
	return key
}

// statusWriter records the first status written so the metrics wrapper can
// classify the response after the handler returns. A Write without an
// explicit WriteHeader records the implicit 200, and Flush passes through
// so streaming responses keep flush capability behind the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Ledger exposes the global budget ledger (every charge, all keys).
func (s *Server) Ledger() *repro.BudgetLedger { return s.ledgers.Global() }

// Budgets exposes the full ledger registry (cmd/dpcubed prints its summary
// on shutdown; tests read per-key spend).
func (s *Server) Budgets() *repro.BudgetRegistry { return s.ledgers }

// BudgetSummary renders the shutdown spend report with every tenant key
// replaced by its redactKey fingerprint — the only form of a key that may
// reach stderr or a log sink.
func (s *Server) BudgetSummary() string { return s.ledgers.SummaryRedacted(redactKey) }

// CacheStats exposes the shared plan cache counters.
func (s *Server) CacheStats() repro.CacheStats { return s.cache.Stats() }

// Store exposes the dataset store (tests, embedders).
func (s *Server) Store() *store.Store { return s.store }

// FlushPlans persists the plan cache's rebuildable plans through the store
// (a no-op without StoreDir), returning how many records were written. The
// daemon calls it periodically (-plan-flush) so a crash no longer loses the
// warm cache built since startup.
func (s *Server) FlushPlans() (int, error) {
	return s.store.SavePlans(s.cache)
}

// FlushLedgers persists every ledger's charge history through the store
// (a no-op without StoreDir), returning the number of global charges
// written. Close calls it, so a graceful restart loses no spend. The
// daemon also calls it alongside FlushPlans every -plan-flush interval;
// that interval defaults to 0 (never), and a crash loses every charge
// since the last call.
func (s *Server) FlushLedgers() (int, error) {
	return s.store.SaveLedgers(s.ledgers)
}

// Drain marks the server not-ready (GET /v1/readyz answers 503, so load
// balancers stop sending work) and waits for every
// in-flight routed request to leave its handler, or for ctx to expire.
// Call it after http.Server.Shutdown and before Close: Shutdown stops new
// connections but Close snapshots the ledgers and plans, and a release
// still charging mid-handler must land in that snapshot, not after it.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %d requests still in flight: %w",
				s.inflight.Load(), ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// Telemetry exposes the server's metrics registry (tests, embedders).
func (s *Server) Telemetry() *telemetry.Registry { return s.tele }

// MetricsHandler serves the registry in Prometheus text format — the
// same bytes as GET /v1/metrics?format=prometheus, but as a standalone
// handler for an unauthenticated admin listener (dpcubed mounts it at
// /metrics next to pprof).
func (s *Server) MetricsHandler() http.Handler { return s.tele.Handler() }

// Close persists the plan cache's rebuildable plans and the budget
// ledgers through the store (no-ops without StoreDir): the next process
// skips the expensive cluster planning and resumes every tenant's spend
// where this one stopped. Dataset snapshots were already written at
// ingest time; Close adds no dataset work.
func (s *Server) Close() error {
	_, perr := s.FlushPlans()
	_, lerr := s.FlushLedgers()
	return errors.Join(perr, lerr)
}

// ---------------------------------------------------------------------------
// Wire types.

type attributeJSON struct {
	Name        string `json:"name"`
	Cardinality int    `json:"cardinality"`
}

// workloadJSON selects the released marginals: either all k-way marginals
// (k, optionally star/anchor variants) or an explicit attribute-set list.
type workloadJSON struct {
	K         int     `json:"k,omitempty"`
	Star      bool    `json:"star,omitempty"`
	Anchor    *int    `json:"anchor,omitempty"`
	Marginals [][]int `json:"marginals,omitempty"`
}

type releaseRequest struct {
	// Schema is required with rows/counts; with dataset_id it is optional
	// and, when present, must match the ingested dataset's schema exactly.
	Schema []attributeJSON `json:"schema,omitempty"`
	// Exactly one of Rows (tuples under the schema), Counts (the full
	// contingency vector, length 2^dim) or DatasetID (a dataset previously
	// ingested via PUT /v1/datasets/{id}) carries the data.
	Rows      [][]int   `json:"rows,omitempty"`
	Counts    []float64 `json:"counts,omitempty"`
	DatasetID string    `json:"dataset_id,omitempty"`

	Workload workloadJSON `json:"workload"`

	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta,omitempty"`
	Seed    int64   `json:"seed"`

	Strategy        string `json:"strategy,omitempty"` // fourier|workload|identity|cluster
	UniformBudget   bool   `json:"uniform_budget,omitempty"`
	SkipConsistency bool   `json:"skip_consistency,omitempty"`
	Label           string `json:"label,omitempty"`

	// SyntheticSeed seeds tuple sampling on /v1/synthetic.
	SyntheticSeed int64 `json:"synthetic_seed,omitempty"`
	// MaxOrder bounds the cuboid order on /v1/cube.
	MaxOrder int `json:"max_order,omitempty"`

	// DebugTiming embeds the release's span tree — stage durations, shard
	// fan-out, cache verdict — in the response as
	// a "timing" field. Purely observational: it never enters the result
	// cache key because it never changes a released bit (cached payloads
	// exclude timing; it is spliced per response, like budget).
	DebugTiming bool `json:"debug_timing,omitempty"`
}

type marginalJSON struct {
	Attrs    []int     `json:"attrs"`
	Cells    []float64 `json:"cells"`
	Variance float64   `json:"variance"`
}

type budgetJSON struct {
	EpsilonSpent float64 `json:"epsilon_spent"`
	EpsilonCap   float64 `json:"epsilon_cap"`
	DeltaSpent   float64 `json:"delta_spent"`
	DeltaCap     float64 `json:"delta_cap"`
	Releases     int     `json:"releases"`
}

// budgetResponse is GET /v1/budget: the caller's own ledger (the global
// one when auth is off), plus — for authenticated tenants — the global
// view their charges also count against.
type budgetResponse struct {
	budgetJSON
	Key    string      `json:"key,omitempty"`
	Global *budgetJSON `json:"global,omitempty"`
}

// The release-shaped responses split into a body (everything deterministic
// given the request — what the result cache stores as rendered JSON) and a
// trailing budget (live ledger state, spliced in per response). Embedding
// keeps the wire format identical to a flat struct.

type releaseBody struct {
	Strategy      string         `json:"strategy"`
	TotalVariance float64        `json:"total_variance"`
	Tables        []marginalJSON `json:"tables"`
}

type releaseResponse struct {
	releaseBody
	Budget budgetJSON `json:"budget"`
}

type cubeBody struct {
	MaxOrder      int            `json:"max_order"`
	TotalVariance float64        `json:"total_variance"`
	Cuboids       []marginalJSON `json:"cuboids"`
}

type cubeResponse struct {
	cubeBody
	Budget budgetJSON `json:"budget"`
}

type syntheticBody struct {
	Strategy string  `json:"strategy"`
	Count    int     `json:"count"`
	Rows     [][]int `json:"rows"`
	// With schema set, sample stands in for Rows: row i is the decoded
	// cell sample[i], written as it is decoded, so /v1/synthetic never
	// holds its sample as [][]int (4.7 MB for NLTCS).
	sample []int32
	schema *repro.Schema
}

type syntheticResponse struct {
	syntheticBody
	Budget budgetJSON `json:"budget"`
}

// marshal returns json.Marshal(b) byte for byte (with Rows the decoded
// sample when schema is set), written without reflection into a buffer
// sized up front: a sample of ~21k rows × 16 attributes is too many small
// ints for encoding/json's per-value reflection and repeated buffer
// growth.
func (b syntheticBody) marshal() ([]byte, error) {
	strategy, err := json.Marshal(b.Strategy)
	if err != nil {
		return nil, err
	}
	const head, mid, tail = `{"strategy":`, `,"count":`, `,"rows":`
	size := len(head) + len(strategy) + len(mid) + intLen(b.Count) + len(tail) + len("null}")
	if b.schema != nil {
		// A row is at most its brackets, commas and every attribute's
		// widest code: exact for binary attributes.
		row := len(",[]") + len(b.schema.Attrs) - 1
		for _, a := range b.schema.Attrs {
			row += intLen(1<<uint(a.BitWidth()) - 1)
		}
		size += len(b.sample) * row
	} else {
		size += len(b.Rows)
		for _, row := range b.Rows {
			size += len("null") + len(row)
			for _, v := range row {
				size += intLen(v)
			}
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, head...)
	buf = append(buf, strategy...)
	buf = append(buf, mid...)
	buf = strconv.AppendInt(buf, int64(b.Count), 10)
	buf = append(buf, tail...)
	if b.schema != nil {
		buf = appendSample(buf, b.schema, b.sample)
	} else {
		buf = appendIntRows(buf, b.Rows)
	}
	return append(buf, '}'), nil
}

// appendIntRows appends rows as encoding/json writes a [][]int: nil
// slices as null.
func appendIntRows(buf []byte, rows [][]int) []byte {
	if rows == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, row := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendIntRow(buf, row)
	}
	return append(buf, ']')
}

// appendSample appends one row per cell, decoded under s, as
// appendIntRows writes the decoded rows.
func appendSample(buf []byte, s *repro.Schema, cells []int32) []byte {
	row := make([]int, len(s.Attrs))
	buf = append(buf, '[')
	for i, cell := range cells {
		if i > 0 {
			buf = append(buf, ',')
		}
		s.DecodeInto(int(cell), row)
		buf = appendIntRow(buf, row)
	}
	return append(buf, ']')
}

// appendIntRow appends row as encoding/json writes an []int: nil as null.
// Single digits, every binary attribute and most categorical codes, are
// written as one byte.
func appendIntRow(buf []byte, row []int) []byte {
	if row == nil {
		return append(buf, "null"...)
	}
	if len(row) == 0 {
		return append(buf, "[]"...)
	}
	sep := byte('[')
	for _, v := range row {
		if uint(v) < 10 {
			buf = append(buf, sep, byte('0'+v))
		} else {
			buf = strconv.AppendInt(append(buf, sep), int64(v), 10)
		}
		sep = ','
	}
	return append(buf, ']')
}

// intLen is the length of v in decimal.
func intLen(v int) int {
	if uint(v) < 10 {
		return 1
	}
	n := 1
	u := uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the request's correlation ID so a failing caller
	// can quote the exact server-side log records.
	RequestID string `json:"request_id,omitempty"`
}

type endpointJSON struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// latencyJSON summarises one latency histogram for the JSON metrics
// endpoint: bucket-derived quantiles, in milliseconds.
type latencyJSON struct {
	Count  uint64  `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
}

func latencyOf(h *telemetry.Histogram) latencyJSON {
	const ms = 1e3
	return latencyJSON{
		Count:  h.Count(),
		P50MS:  h.Quantile(0.50) * ms,
		P95MS:  h.Quantile(0.95) * ms,
		P99MS:  h.Quantile(0.99) * ms,
		MeanMS: h.Mean() * ms,
	}
}

type cacheJSON struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// planCacheJSON adds the plan cache's answer-memo counters (see
// engine.PlanCache) to the common cache fields.
type planCacheJSON struct {
	cacheJSON
	AnswerHits   uint64 `json:"answer_hits"`
	AnswerMisses uint64 `json:"answer_misses"`
}

type metricsBudgetJSON struct {
	budgetJSON
	EpsilonRemaining float64 `json:"epsilon_remaining"`
	DeltaRemaining   float64 `json:"delta_remaining"`
}

type metricsResponse struct {
	Endpoints map[string]endpointJSON `json:"endpoints"`
	// Latency is per-endpoint request latency (bucket-derived quantiles);
	// Stages is per-engine-stage duration over every release served.
	Latency     map[string]latencyJSON       `json:"latency"`
	Stages      map[string]latencyJSON       `json:"stages"`
	Budget      metricsBudgetJSON            `json:"budget"`
	Composition string                       `json:"composition"`
	PerKey      map[string]metricsBudgetJSON `json:"per_key_budget,omitempty"`
	PlanCache   planCacheJSON                `json:"plan_cache"`
	ResultCache *cacheJSON                   `json:"result_cache,omitempty"`
	// Coalesced counts requests answered by another identical request's
	// in-flight execution (single-flight; see the package doc).
	Coalesced uint64      `json:"coalesced_requests"`
	Datasets  store.Stats `json:"datasets"`
}

// engineStages are the pipeline stage names RunVector traces, in
// pipeline order — the keys of the metrics "stages" section.
var engineStages = []string{"plan", "allocate", "measure", "recover", "consist"}

// healthResponse is GET /v1/healthz and /v1/readyz.
type healthResponse struct {
	Status   string `json:"status"`
	Datasets int    `json:"datasets,omitempty"`
}

type datasetListResponse struct {
	Datasets []store.Info `json:"datasets"`
}

// ---------------------------------------------------------------------------
// Handlers.

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	s.serveRelease(w, r, releaseEndpoint{name: "release", releaser: true, body: (*Server).renderRelease})
}

func (s *Server) handleSynthetic(w http.ResponseWriter, r *http.Request) {
	s.serveRelease(w, r, releaseEndpoint{name: "synthetic", releaser: true,
		check: checkSynthetic, body: (*Server).renderSynthetic})
}

func (s *Server) handleCube(w http.ResponseWriter, r *http.Request) {
	s.serveRelease(w, r, releaseEndpoint{name: "cube", check: checkCube, body: (*Server).renderCube})
}

// releaseCall is one decoded release-shaped request: what an endpoint's
// body builder reads.
type releaseCall struct {
	req    releaseRequest
	schema *repro.Schema
	x      *repro.BlockedVector
	h      *store.Handle // non-nil for dataset_id requests; pinned until the handler returns
	kind   repro.StrategyKind
	rel    *repro.Releaser // the shared Releaser; nil on endpoints without one
}

// releaseEndpoint is everything that tells /v1/release, /v1/synthetic and
// /v1/cube apart inside the one serving flow, serveRelease.
type releaseEndpoint struct {
	// name is the trace root, the result-key kind and the default ledger
	// label stem.
	name string
	// releaser marks endpoints whose mechanism runs through a shared
	// Releaser (built, and pre-planned, on first use).
	releaser bool
	// check is the endpoint's own validation, run before anything is
	// planned or charged; nil means none.
	check func(req *releaseRequest, schema *repro.Schema) error
	// body renders the response — a JSON object without the budget field —
	// after the admission charge; any error it returns keeps the charge.
	body func(s *Server, r *http.Request, c *releaseCall) ([]byte, error)
}

// label is the default ledger label stem of a request on ep.
func (ep releaseEndpoint) label(req *releaseRequest) string {
	if ep.name == "cube" {
		return fmt.Sprintf("cube-%d-way", req.MaxOrder)
	}
	return ep.name
}

// serveRelease is the one serving flow of every release-shaped endpoint:
// decode → validate → trace → rescache.Do(releaser → charge → body) →
// write. Validation comes first, so a malformed request is a free 400 that
// plans nothing, registers (or evicts) no Releaser and charges nothing. A
// result-cache hit replays the stored payload BEFORE any charge: replaying
// the same noised output is free post-processing, paid for by the miss that
// computed it (see internal/rescache). The Releaser is resolved only on a
// miss, so a hit builds no workload and never touches the Releaser
// registry. A workload error stays a 400 either way: whether the workload
// resolves is a function of the request's releaserKey, which is part of the
// result key, so a request whose workload fails never hits. On a miss,
// everything from Releaser resolution on runs under the key's
// single-flight: a cold-key thundering herd plans and admits one leader,
// and its followers share the payload (or inherit a pre-charge error bare)
// without charging. Post-charge failures are wrapped so only the leader
// answers with the retained-charge contract.
func (s *Server) serveRelease(w http.ResponseWriter, r *http.Request, ep releaseEndpoint) {
	c, err := s.decodeData(w, r)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if c.h != nil {
		defer c.h.Close()
	}
	req := &c.req
	if ep.check != nil {
		err = ep.check(req, c.schema)
	}
	if err == nil {
		err = validateSpec(req)
	}
	if err == nil {
		c.kind, err = strategyKind(req.Strategy)
	}
	if err != nil {
		s.fail(w, r, err)
		return
	}
	r = s.withTrace(r, ep.name, req)
	root := telemetry.TraceFrom(r.Context()).Root()
	var wait *telemetry.Span
	payload, outcome, err := s.results.Do(r.Context(), s.resultKey(ep.name, c), req.DatasetID, func() ([]byte, error) {
		if ep.releaser {
			rel, err := s.releaser(r.Context(), c)
			if err != nil {
				return nil, err
			}
			c.rel = rel
		}
		if err := s.charge(r, c.rel, req, ep.label(req)); err != nil {
			return nil, err
		}
		payload, err := ep.body(s, r, c)
		if err != nil {
			return nil, retainedChargeError{err}
		}
		return payload, nil
	}, func() {
		if wait == nil {
			wait = root.StartDetail("flight.wait")
		}
	})
	wait.End()
	switch outcome {
	case rescache.Bypass:
		root.Annotate("rescache", "bypass")
	case rescache.Hit:
		root.Annotate("rescache", "hit")
	case rescache.Led:
		root.Annotate("rescache", "miss")
		root.Annotate("flight", "lead")
	case rescache.Coalesced:
		root.Annotate("rescache", "miss")
		root.Annotate("flight", "coalesced")
		if err == nil {
			s.coalesced.Inc()
		}
	}
	if err != nil {
		s.failFlight(w, r, err, req, outcome != rescache.Coalesced)
		return
	}
	s.writeSpliced(w, r, payload)
}

// checkSynthetic refuses raw releases: sampling needs consistent marginals.
func checkSynthetic(req *releaseRequest, _ *repro.Schema) error {
	if req.SkipConsistency {
		return fmt.Errorf("%w: synthetic data needs a consistent release (skip_consistency must be false)",
			repro.ErrInvalidOption)
	}
	return nil
}

// checkCube bounds the cuboid order.
func checkCube(req *releaseRequest, schema *repro.Schema) error {
	if req.MaxOrder <= 0 || req.MaxOrder > len(schema.Attrs) {
		return fmt.Errorf("%w: max_order %d out of range [1,%d]",
			repro.ErrInvalidOption, req.MaxOrder, len(schema.Attrs))
	}
	return nil
}

// renderRelease runs /v1/release: the workload's noisy marginal tables.
func (s *Server) renderRelease(r *http.Request, c *releaseCall) ([]byte, error) {
	res, err := s.release(r, c)
	if err != nil {
		return nil, err
	}
	return releaseBody{
		Strategy:      res.Strategy,
		TotalVariance: res.TotalVariance,
		Tables:        tablesJSON(res),
	}.marshal()
}

// renderSynthetic runs /v1/synthetic: a release, then tuples sampled from
// it. Sampling is seeded by synthetic_seed (part of the result key), so a
// repeated request replays the identical sample, and it is free
// post-processing — no further ledger spend. It is repro.SyntheticData with
// the sample kept as cells, which the body decodes row by row.
func (s *Server) renderSynthetic(r *http.Request, c *releaseCall) ([]byte, error) {
	res, err := s.release(r, c)
	if err != nil {
		return nil, err
	}
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	ssp := telemetry.TraceFrom(r.Context()).Root().Start("sample")
	schema := c.rel.Schema()
	x, err := repro.ReleaseVectorCoefficients(schema, c.rel.Workload(), res)
	if err != nil {
		ssp.End()
		return nil, err
	}
	cells, _ := synth.SampleCells(schema, synth.RoundToCounts(x), c.req.SyntheticSeed)
	ssp.End()
	return syntheticBody{
		Strategy: res.Strategy,
		Count:    len(cells),
		sample:   cells,
		schema:   schema,
	}.marshal()
}

// renderCube runs /v1/cube over the vector decodeData already built — the
// cube path never re-vectorizes.
func (s *Server) renderCube(r *http.Request, c *releaseCall) ([]byte, error) {
	req := &c.req
	cube, err := repro.ReleaseCubeBlockedContext(r.Context(), c.schema, c.x, req.MaxOrder, repro.Options{
		Epsilon:       req.Epsilon,
		Delta:         req.Delta,
		Strategy:      c.kind,
		UniformBudget: req.UniformBudget,
		Seed:          req.Seed,
		Workers:       s.cfg.MaxWorkers,
		Cache:         s.cache,
	})
	if err != nil {
		return nil, err
	}
	return cubeBody{
		MaxOrder:      req.MaxOrder,
		TotalVariance: cube.TotalVariance,
		Cuboids:       cuboidsJSON(cube),
	}.marshal()
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	key := apiKeyFrom(r.Context())
	if key == "" {
		writeJSON(w, http.StatusOK, budgetResponse{budgetJSON: s.budget()})
		return
	}
	global := s.budget()
	writeJSON(w, http.StatusOK, budgetResponse{
		budgetJSON: s.budgetFor(key),
		Key:        key,
		Global:     &global,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", telemetry.TextContentType)
		_ = s.tele.WritePrometheus(w)
		return
	}
	eps := make(map[string]endpointJSON, len(s.metricNames))
	lat := make(map[string]latencyJSON, len(s.metricNames))
	for _, name := range s.metricNames {
		m := s.metrics[name]
		eps[name] = endpointJSON{Requests: m.requests.Value(), Errors: m.errors.Value()}
		lat[name] = latencyOf(m.latency)
	}
	stages := make(map[string]latencyJSON, len(engineStages))
	for _, stage := range engineStages {
		stages[stage] = latencyOf(telemetry.StageHistogram(s.tele, stage))
	}
	var perKey map[string]metricsBudgetJSON
	if keys := s.ledgers.Keys(); len(keys) > 0 {
		perKey = make(map[string]metricsBudgetJSON, len(keys))
		for _, k := range keys {
			l, err := s.ledgers.Ledger(k)
			if err != nil {
				continue
			}
			// Keys are credentials shared with no one but their tenant:
			// the per-key breakdown is labelled by redacted identifiers,
			// never the raw keys — any single authenticated tenant can
			// read /v1/metrics and must not learn the others' secrets.
			perKey[redactKey(k)] = metricsBudget(l)
		}
	}
	cs := s.cache.Stats()
	var rc *cacheJSON
	if s.results != nil {
		rs := s.results.Stats()
		rc = &cacheJSON{Hits: rs.Hits, Misses: rs.Misses, Entries: rs.Entries}
	}
	writeJSON(w, http.StatusOK, metricsResponse{
		Endpoints:   eps,
		Latency:     lat,
		Stages:      stages,
		Budget:      metricsBudget(s.ledgers.Global()),
		Composition: s.ledgers.Composition().Name(),
		PerKey:      perKey,
		PlanCache: planCacheJSON{
			cacheJSON:  cacheJSON{Hits: cs.Hits, Misses: cs.Misses, Entries: cs.Entries},
			AnswerHits: cs.AnswerHits, AnswerMisses: cs.AnswerMisses,
		},
		ResultCache: rc,
		Coalesced:   s.coalesced.Value(),
		Datasets:    s.store.Stats(),
	})
}

// redactKey maps an API key to its stable non-secret identifier. The
// fingerprint format is owned by accountant.RedactKey so ledger errors and
// server logs print the same identifier for the same credential.
func redactKey(key string) string {
	return accountant.RedactKey(key)
}

// metricsBudget reads one ledger's spend and remaining budget. Remaining
// comes from the ledger itself — the single source of truth, clamped at
// zero there — not from re-deriving caps-minus-spent here, which went
// stale (and slightly negative, via the admission tolerance) the moment
// ledgers stopped being one global object.
func metricsBudget(l *repro.BudgetLedger) metricsBudgetJSON {
	er, dr := l.Remaining()
	return metricsBudgetJSON{
		budgetJSON:       ledgerJSON(l),
		EpsilonRemaining: er,
		DeltaRemaining:   dr,
	}
}

// handleDatasetPut streams the NDJSON body into the store: mode empty or
// "replace" registers (or replaces) the dataset, mode=append sums the
// stream's aggregated counts into the existing dataset (schemas must
// match; transactional — a failed stream changes nothing). Ingestion never
// touches the ledger: budget is spent when answers leave, not when data
// arrives.
func (s *Server) handleDatasetPut(w http.ResponseWriter, r *http.Request) {
	var body io.Reader = r.Body
	if s.cfg.MaxIngestBytes > 0 {
		// The byte bound applies to the wire (compressed) stream; a gzip
		// body additionally gets a decompressed-size cap below, because a
		// line limit bounds one line, not the stream — without it a small
		// gzip bomb of many short lines buys ~1000x ingest work within the
		// wire budget.
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes)
	}
	switch enc := r.Header.Get("Content-Encoding"); enc {
	case "", "identity":
	case "gzip":
		zr, err := gzip.NewReader(body)
		if err != nil {
			s.fail(w, r, fmt.Errorf("%w: gzip stream: %v", store.ErrInvalidDataset, err))
			return
		}
		defer zr.Close()
		// Mid-stream corruption surfaces as a read error inside the ingester,
		// which rejects the whole stream transactionally — same contract as a
		// malformed NDJSON line. The expansion cap rides the same path.
		body = zr
		if s.cfg.MaxIngestBytes > 0 {
			limit := gzipExpansionCap * s.cfg.MaxIngestBytes
			body = &capReader{r: zr, n: limit + 1, err: fmt.Errorf(
				"%w: gzip stream expands past %d bytes (%dx the ingest byte limit)",
				store.ErrInvalidDataset, limit, gzipExpansionCap)}
		}
	default:
		s.fail(w, r, fmt.Errorf("%w: unsupported Content-Encoding %q (want gzip or identity)",
			repro.ErrInvalidOption, enc))
		return
	}
	var (
		opts store.IngestOptions
		info store.Info
		err  error
	)
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "replace":
		info, err = s.store.IngestNDJSON(r.Context(), r.PathValue("id"), body, opts)
	case "append":
		info, err = s.store.AppendNDJSON(r.Context(), r.PathValue("id"), body, opts)
	default:
		err = fmt.Errorf("%w: unknown ingest mode %q (want replace or append)", repro.ErrInvalidOption, mode)
	}
	if err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// gzipExpansionCap bounds a gzip ingest stream's decompressed size as a
// multiple of MaxIngestBytes. Real NDJSON compresses well under 32x; gzip
// bombs run to ~1000x, so the cap cuts the amplification an attacker can
// buy within the wire byte budget without ever refusing honest data.
const gzipExpansionCap = 32

// capReader fails the stream with err once more than its byte allowance
// has been read (set n to limit+1 to admit exactly limit bytes).
type capReader struct {
	r   io.Reader
	n   int64
	err error
}

func (c *capReader) Read(p []byte) (int, error) {
	if c.n <= 0 {
		return 0, c.err
	}
	if int64(len(p)) > c.n {
		p = p[:c.n]
	}
	n, err := c.r.Read(p)
	c.n -= int64(n)
	return n, err
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.store.Describe(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Delete(r.PathValue("id")); err != nil {
		s.fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	infos := s.store.List()
	if infos == nil {
		infos = []store.Info{}
	}
	writeJSON(w, http.StatusOK, datasetListResponse{Datasets: infos})
}

// handleHealthz is liveness: the process is up and serving HTTP. It never
// says no — a draining process is still alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok"})
}

// handleReadyz is readiness: the store is open with its snapshots loaded
// and the ledgers restored — both preconditions of New, so a constructed
// server is ready until it starts draining. 503 tells load balancers to
// route elsewhere while in-flight work finishes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Datasets: s.store.Stats().Datasets})
}

// ---------------------------------------------------------------------------
// Request plumbing.

// decodeData parses the body and resolves the schema (from the request, or
// from the named dataset) and the contingency vector.
// With dataset_id the returned handle pins the dataset for the request's
// duration — the caller must Close it; a concurrent DELETE then never tears
// the release mid-run.
func (s *Server) decodeData(w http.ResponseWriter, r *http.Request) (*releaseCall, error) {
	c := new(releaseCall)
	req := &c.req
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("%w: bad JSON: %v", repro.ErrInvalidOption, err)
	}
	sources := 0
	for _, has := range []bool{req.Rows != nil, req.Counts != nil, req.DatasetID != ""} {
		if has {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: provide exactly one of rows, counts or dataset_id", repro.ErrInvalidOption)
	}
	// A δ above the server's cap can never be admitted: reject it as a bad
	// request up front instead of a misleading, retryable 429 later.
	if req.Delta > s.cfg.DeltaCap {
		return nil, fmt.Errorf("%w: delta %v exceeds the server's delta cap %v (never admissible)",
			repro.ErrInvalidDelta, req.Delta, s.cfg.DeltaCap)
	}

	if req.DatasetID != "" {
		h, err := s.store.Get(req.DatasetID)
		if err != nil {
			return nil, err
		}
		if len(req.Schema) > 0 && !schemaMatches(req.Schema, h.Schema().Attrs) {
			h.Close()
			return nil, fmt.Errorf("%w: request schema does not match dataset %q",
				repro.ErrInvalidOption, req.DatasetID)
		}
		c.schema, c.x, c.h = h.Schema(), h.Vector(), h
		return c, nil
	}

	if len(req.Schema) == 0 {
		return nil, fmt.Errorf("%w: empty schema", repro.ErrInvalidOption)
	}
	attrs := make([]repro.Attribute, len(req.Schema))
	for i, a := range req.Schema {
		attrs[i] = repro.Attribute{Name: a.Name, Cardinality: a.Cardinality}
	}
	schema, err := repro.NewSchema(attrs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", repro.ErrInvalidOption, err)
	}
	if err := store.CheckDim(schema); err != nil {
		return nil, fmt.Errorf("%w: %v", repro.ErrInvalidOption, err)
	}
	var dense []float64
	if req.Counts != nil {
		if len(req.Counts) != schema.DomainSize() {
			return nil, fmt.Errorf("%w: counts has %d entries, domain needs %d",
				repro.ErrDimensionMismatch, len(req.Counts), schema.DomainSize())
		}
		dense = req.Counts
	} else {
		tab := &repro.Table{Schema: schema, Rows: req.Rows}
		if dense, err = tab.Vector(); err != nil {
			return nil, fmt.Errorf("%w: %v", repro.ErrInvalidOption, err)
		}
	}
	c.schema, c.x = schema, repro.NewBlockedVector(dense)
	return c, nil
}

// schemaMatches reports whether the inline schema names exactly the
// dataset's attributes, in order.
func schemaMatches(inline []attributeJSON, attrs []repro.Attribute) bool {
	if len(inline) != len(attrs) {
		return false
	}
	for i, a := range inline {
		if a.Name != attrs[i].Name || a.Cardinality != attrs[i].Cardinality {
			return false
		}
	}
	return true
}

// workload resolves the request's workload spec over the schema.
func workloadOf(schema *repro.Schema, wl workloadJSON) (*repro.Workload, error) {
	switch {
	case wl.Marginals != nil:
		w, err := repro.MarginalsOver(schema, wl.Marginals)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", repro.ErrInvalidOption, err)
		}
		return w, nil
	case wl.K > 0 && wl.K <= len(schema.Attrs):
		if wl.Anchor != nil {
			if *wl.Anchor < 0 || *wl.Anchor >= len(schema.Attrs) {
				return nil, fmt.Errorf("%w: anchor %d out of range", repro.ErrInvalidOption, *wl.Anchor)
			}
			return repro.KWayAnchored(schema, wl.K, *wl.Anchor), nil
		}
		if wl.Star {
			return repro.KWayPlusHalf(schema, wl.K), nil
		}
		return repro.AllKWayMarginals(schema, wl.K), nil
	default:
		return nil, fmt.Errorf("%w: workload needs k in [1,%d] or explicit marginals",
			repro.ErrInvalidOption, len(schema.Attrs))
	}
}

// strategyKind maps the wire name onto the strategy enum. An empty name
// defaults to Fourier; anything unrecognised is a 400, not a silent
// default — a typo must not run the wrong mechanism and charge for it.
func strategyKind(name string) (repro.StrategyKind, error) {
	switch strings.ToLower(name) {
	case "", "fourier":
		return repro.StrategyFourier, nil
	case "workload":
		return repro.StrategyWorkload, nil
	case "identity":
		return repro.StrategyIdentity, nil
	case "cluster":
		return repro.StrategyCluster, nil
	default:
		return 0, fmt.Errorf("%w: unknown strategy %q (want fourier|workload|identity|cluster)",
			repro.ErrInvalidOption, name)
	}
}

// validateSpec applies the admission checks the Releaser path performs
// itself, for endpoints that charge the ledger directly.
func validateSpec(req *releaseRequest) error {
	if req.Epsilon <= 0 {
		return fmt.Errorf("%w: got %v", repro.ErrInvalidEpsilon, req.Epsilon)
	}
	if req.Delta < 0 || req.Delta >= 1 {
		return fmt.Errorf("%w: got %v", repro.ErrInvalidDelta, req.Delta)
	}
	return nil
}

// releaser returns (building on first use) the shared Releaser for the
// request's (schema, workload, mechanism) key. All Releasers share the
// server's plan cache and budget ledger.
//
// Construction — which pre-plans, for the cluster strategy an expensive
// search — happens OUTSIDE the registry lock and under the request's
// context: one slow cold-start must not block requests for already-warm
// keys, and a client that gives up aborts its own planning. Two racing
// cold-starts may both plan; the loser's work is not wasted because both
// share s.cache, and only one Releaser is registered.
func (s *Server) releaser(ctx context.Context, c *releaseCall) (*repro.Releaser, error) {
	schema, req, kind := c.schema, &c.req, c.kind
	key := releaserKey(schema, req, kind)
	s.mu.Lock()
	r, ok := s.releasers[key]
	s.mu.Unlock()
	if ok {
		// A registered key's workload was built without error, and
		// whether it builds is a function of the key
		// (TestWorkloadSuccessIsAFunctionOfReleaserKey): a hit needs none.
		return r, nil
	}
	w, err := workloadOf(schema, req.Workload)
	if err != nil {
		return nil, err
	}
	// No ledger is attached: admission is the server's job (s.charge), a
	// single point that knows the caller's key — Releasers here are pure
	// mechanism runners shared across tenants.
	opts := []repro.ReleaserOption{
		repro.WithStrategy(kind),
		repro.WithCache(s.cache),
	}
	if req.UniformBudget {
		opts = append(opts, repro.WithUniformBudget())
	}
	if req.SkipConsistency {
		opts = append(opts, repro.WithoutConsistency())
	}
	if s.cfg.MaxWorkers > 0 {
		opts = append(opts, repro.WithWorkers(s.cfg.MaxWorkers))
	}
	r, err = repro.NewReleaserContext(ctx, schema, w, opts...)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if existing, ok := s.releasers[key]; ok {
		r = existing
	} else {
		for len(s.releasers) >= s.cfg.MaxReleasers {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.releasers, oldest)
		}
		s.releasers[key] = r
		s.order = append(s.order, key)
	}
	s.mu.Unlock()
	return r, nil
}

// releaserKey fingerprints everything structural about a request. Two
// requests with the same key share one Releaser (and hence one warmed
// plan); privacy parameters and seeds deliberately stay out, and the key is
// built from the *resolved* schema, so a dataset_id request and the
// equivalent rows request share one Releaser. Attribute names are
// length-prefixed so crafted names containing the delimiters cannot collide
// two distinct schemas onto one key.
func releaserKey(schema *repro.Schema, req *releaseRequest, kind repro.StrategyKind) string {
	var b strings.Builder
	for _, a := range schema.Attrs {
		b.WriteString(strconv.Itoa(len(a.Name)))
		b.WriteByte(':')
		b.WriteString(a.Name)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(a.Cardinality))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	wl := req.Workload
	switch {
	case wl.Marginals != nil:
		for _, set := range wl.Marginals {
			sorted := append([]int(nil), set...)
			sort.Ints(sorted)
			for _, a := range sorted {
				b.WriteString(strconv.Itoa(a))
				b.WriteByte('.')
			}
			b.WriteByte(';')
		}
	default:
		b.WriteString("k=")
		b.WriteString(strconv.Itoa(wl.K))
		if wl.Star {
			b.WriteString("*")
		}
		if wl.Anchor != nil {
			b.WriteString("a")
			b.WriteString(strconv.Itoa(*wl.Anchor))
		}
	}
	b.WriteByte('|')
	b.WriteString(kind.String())
	if req.UniformBudget {
		b.WriteString("|uniform")
	}
	if req.SkipConsistency {
		b.WriteString("|raw")
	}
	return b.String()
}

// resultKey fingerprints everything that determines a release-shaped
// response's bytes: endpoint kind, dataset identity AND install version,
// the structural key (schema, workload, strategy, uniform/consistency
// toggles — minus what the endpoint ignores), the exact privacy parameters
// (Float64bits — the key must distinguish values a decimal rendering could
// collide), seed, and the resolved shard count, plus the per-endpoint
// extras (synthetic_seed, max_order). Workers stay out: the engine is
// bit-identical at every worker count, so thread count must not fragment
// the cache. Only dataset-backed requests are cacheable — inline rows carry
// no version to key on — and "" marks an uncacheable request.
func (s *Server) resultKey(kind string, c *releaseCall) string {
	if s.results == nil || c.h == nil {
		return ""
	}
	req := &c.req
	if kind == "cube" {
		// The cube reads neither the workload nor skip_consistency: blank
		// them, or requests differing only there would miss each other's
		// byte-identical entries and each charge the ledger.
		cr := *req
		cr.Workload, cr.SkipConsistency = workloadJSON{}, false
		req = &cr
	}
	var b strings.Builder
	b.WriteString(kind)
	b.WriteByte('|')
	b.WriteString(c.h.ID())
	b.WriteByte('@')
	b.WriteString(strconv.FormatInt(c.h.Version(), 10))
	b.WriteByte('|')
	b.WriteString(releaserKey(c.schema, req, c.kind))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(math.Float64bits(req.Epsilon), 16))
	b.WriteByte(',')
	b.WriteString(strconv.FormatUint(math.Float64bits(req.Delta), 16))
	b.WriteByte(',')
	b.WriteString(strconv.FormatInt(req.Seed, 10))
	switch kind {
	case "synthetic":
		b.WriteString(",ss")
		b.WriteString(strconv.FormatInt(req.SyntheticSeed, 10))
	case "cube":
		b.WriteString(",mo")
		b.WriteString(strconv.Itoa(req.MaxOrder))
	}
	return b.String()
}

// withTrace installs a release trace in the request context. Every
// release-shaped request is traced — that is what feeds the per-stage
// histograms — but sub-span detail is recorded only when the request asked
// for debug_timing.
func (s *Server) withTrace(r *http.Request, name string, req *releaseRequest) *http.Request {
	tr := telemetry.NewTrace(s.tele, name, req.DebugTiming)
	return r.WithContext(telemetry.ContextWithTrace(r.Context(), tr))
}

// retainedChargeError marks a failure that happened AFTER this flight's
// leader was admitted (charged): the leader must answer with the
// retained-charge contract while a coalesced follower — which never charged
// — reports the bare error. The wrapper is transparent to errors.Is/As via
// Unwrap, so status mapping (499 for cancellations, 500 for faults) is
// unchanged.
type retainedChargeError struct{ err error }

func (e retainedChargeError) Error() string { return e.err.Error() }
func (e retainedChargeError) Unwrap() error { return e.err }

// failFlight reports a coalesced execution's error with the right charge
// framing: only the flight's leader charged, so only the leader's failure
// carries the retained-charge contract; a follower inheriting the same
// error reports it bare (its budget is untouched).
func (s *Server) failFlight(w http.ResponseWriter, r *http.Request, err error, req *releaseRequest, led bool) {
	var rc retainedChargeError
	if errors.As(err, &rc) {
		if led {
			s.failRetained(w, r, rc.err, req)
		} else {
			s.fail(w, r, rc.err)
		}
		return
	}
	s.fail(w, r, err)
}

// writeSpliced sends a response body (a JSON object withOUT the budget
// field) with the caller's live budget appended — byte-identical to
// writeJSON on the corresponding full response struct, which is what makes
// a cache hit indistinguishable from the miss that produced it. A
// debug_timing trace is spliced the same way: per response, never into the
// cached payload, so timing (like budget) stays live while the noised
// bytes stay shared.
//
// The splice is zero-copy: only the small per-request tail (budget,
// timing, closing brace) is built. The payload — on a hit, the result
// cache's own slice, read but never retained or mutated — is written
// straight from its slice up to its closing brace, then the tail.
// Content-Length is set from the two parts, so every body, however large,
// goes out with Content-Length framing rather than chunked.
func (s *Server) writeSpliced(w http.ResponseWriter, r *http.Request, payload []byte) {
	// The tail is small and sent once: it takes its own buffer, not one of
	// the pooled body buffers sized for whole releases.
	tail := bodyWriter{buf: make([]byte, 0, len(`,"budget":`)+budgetBound+len("}\n"))}
	tail.raw(`,"budget":`)
	tail.budget(s.budgetFor(apiKeyFrom(r.Context())))
	if tail.err != nil {
		s.fail(w, r, tail.err)
		return
	}
	if tr := telemetry.TraceFrom(r.Context()); tr.Detail() {
		tb, err := json.Marshal(tr.Tree())
		if err != nil {
			s.fail(w, r, err)
			return
		}
		tail.raw(`,"timing":`)
		tail.buf = append(tail.buf, tb...)
	}
	tail.raw("}\n")
	body := payload[:len(payload)-1]
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)+len(tail.buf)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err == nil {
		_, _ = w.Write(tail.buf)
	}
}

// release runs the mechanism over whichever data source the request
// carried. Dataset-backed requests go through ReleaseDataset, whose schema
// check guards the handle's attribute layout.
func (s *Server) release(r *http.Request, c *releaseCall) (*repro.Result, error) {
	if c.h != nil {
		return c.rel.ReleaseDataset(r.Context(), c.h, s.spec(&c.req))
	}
	return c.rel.ReleaseBlocked(r.Context(), c.x, s.spec(&c.req))
}

// spec maps the request's per-call parameters. The engine's worker bound
// is the server's (the Releaser carries MaxWorkers), never the caller's.
func (s *Server) spec(req *releaseRequest) repro.ReleaseSpec {
	return repro.ReleaseSpec{
		Epsilon: req.Epsilon,
		Delta:   req.Delta,
		Seed:    req.Seed,
		Label:   req.Label,
	}
}

// charge is the single admission point of every release-shaped endpoint:
// one atomic two-level charge (the caller's ledger and the global one, or
// neither) before the mechanism runs. A refusal maps to ErrBudgetExhausted
// (429) with the refusing cap named in the message.
//
// When the endpoint runs through a Releaser (release, synthetic) and the
// request is Gaussian (δ > 0), rel threads the allocator's effective σ into
// the charge, so zCDP composition bills the exact mechanism ρ = 1/(2σ²)
// rather than the (ε, δ) conversion bound. The cube endpoint passes nil —
// its mechanism splits the budget across cuboid sub-releases internally, so
// no single allocator σ describes it and the conversion stays in force.
//
// The charge runs under a span so debug_timing shows where ledger
// contention (and the allocator's σ pre-planning) goes.
func (s *Server) charge(r *http.Request, rel *repro.Releaser, req *releaseRequest, defaultLabel string) error {
	sp := telemetry.TraceFrom(r.Context()).Root().Start("charge")
	defer sp.End()
	label := req.Label
	if label == "" {
		label = fmt.Sprintf("%s-%d", defaultLabel, s.relSeq.Add(1))
	}
	// No Partition: the daemon cannot restrict a release to a slice of
	// the data, so every charge it books is whole-population.
	c := repro.BudgetCharge{
		Label:   label,
		Epsilon: req.Epsilon,
		Delta:   req.Delta,
	}
	if rel != nil && req.Delta > 0 {
		// Best-effort: a planning failure leaves σ = 0 (conservative
		// conversion) and resurfaces as the release's own error.
		if sigma, err := rel.EffectiveSigma(r.Context(), s.spec(req)); err == nil && sigma > 0 {
			c.Sigma = sigma
			c.Sensitivity = 1
		}
	}
	err := s.ledgers.Charge(apiKeyFrom(r.Context()), c)
	if err != nil {
		if errors.Is(err, accountant.ErrBudgetExceeded) {
			return fmt.Errorf("%w: %v", repro.ErrBudgetExhausted, err)
		}
		return err
	}
	return nil
}

// failRetained reports a post-admission failure — client disconnect (499),
// engine fault (500) — whose charge is deliberately kept: by the time the
// failure surfaced, noise may already have been drawn against the data, so
// refunding would let a client replay aborted releases for free. The error
// body states the contract so the retained charge is documented behavior,
// not a surprise in the next GET /v1/budget.
func (s *Server) failRetained(w http.ResponseWriter, r *http.Request, err error, req *releaseRequest) {
	s.fail(w, r, fmt.Errorf(
		"%w (the admitted charge ε=%v, δ=%v is retained: budget is spent at admission, not on completion)",
		err, req.Epsilon, req.Delta))
}

// budget reads the global ledger; budgetFor reads the caller's own.
func (s *Server) budget() budgetJSON { return ledgerJSON(s.ledgers.Global()) }

func (s *Server) budgetFor(key string) budgetJSON {
	l, err := s.ledgers.Ledger(key)
	if err != nil {
		// Unreachable in practice: authentication only admits registered
		// keys. Fall back to the global view rather than panic.
		return s.budget()
	}
	return ledgerJSON(l)
}

func ledgerJSON(l *repro.BudgetLedger) budgetJSON {
	eps, del := l.Spent()
	epsCap, delCap := l.Caps()
	return budgetJSON{
		EpsilonSpent: eps,
		EpsilonCap:   epsCap,
		DeltaSpent:   del,
		DeltaCap:     delCap,
		Releases:     l.Count(),
	}
}

func tablesJSON(res *repro.Result) []marginalJSON {
	out := make([]marginalJSON, len(res.Tables))
	for i, t := range res.Tables {
		attrs := t.Attrs
		if attrs == nil {
			attrs = []int{}
		}
		out[i] = marginalJSON{Attrs: attrs, Cells: t.Cells, Variance: t.Variance}
	}
	return out
}

// cuboidsJSON shapes a released cube's cuboids for the wire.
func cuboidsJSON(cube *repro.CubeRelease) []marginalJSON {
	out := make([]marginalJSON, len(cube.Lattice.Cuboids))
	for i, cb := range cube.Lattice.Cuboids {
		attrs := cb.Attrs
		if attrs == nil {
			attrs = []int{}
		}
		out[i] = marginalJSON{Attrs: attrs, Cells: cube.Tables[i], Variance: cube.CellVariance[i]}
	}
	return out
}

// statusCode maps the repro package's typed errors onto HTTP statuses.
const statusClientClosedRequest = 499 // nginx convention; no standard code exists

func statusCode(err error) int {
	switch {
	case errors.Is(err, repro.ErrBudgetExhausted):
		return http.StatusTooManyRequests
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, store.ErrStoreFull):
		return http.StatusInsufficientStorage
	case errors.Is(err, repro.ErrInvalidEpsilon),
		errors.Is(err, repro.ErrInvalidDelta),
		errors.Is(err, repro.ErrDimensionMismatch),
		errors.Is(err, repro.ErrInvalidOption),
		errors.Is(err, store.ErrInvalidDataset):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	writeJSON(w, statusCode(err), errorResponse{
		Error:     err.Error(),
		RequestID: telemetry.RequestIDFrom(r.Context()),
	})
}

// writeJSON encodes v before the header goes out, so a value that cannot
// be encoded (a non-finite float) is answered 500 with an error body
// rather than status with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

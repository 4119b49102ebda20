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
//	GET    /v1/healthz       — liveness (unauthenticated; fabric probe target)
//	GET    /v1/readyz        — readiness (unauthenticated; 503 while draining)
//	POST   /v1/fabric/task   — shard-task endpoint (FabricWorker mode only;
//	                           authenticated by FabricAPIKey, never tenant keys)
//
// PUT /v1/datasets accepts Content-Encoding: gzip; a corrupt stream is
// rejected transactionally, like any malformed NDJSON.
//
// With Config.FabricWorkers set the server acts as a fabric coordinator:
// dataset-backed release and synthetic requests fan their Measure and
// Recover stages out across the worker fleet (see internal/fabric) and
// remain bit-identical to local execution — worker failures, stragglers
// and stale replicas degrade latency, never bits. /v1/metrics gains a
// "fabric" section with per-worker task counts, retries, hedges and
// straggler re-executions.
//
// Release-shaped requests carry their data as exactly one of rows (tuples
// in the body), counts (the full contingency vector) or dataset_id (a
// previously ingested dataset — the serving shape for real traffic, where
// request bodies stop hauling the relation around). The heavy,
// privacy-independent planning work is keyed on (schema, workload,
// strategy) and amortised across requests through the shared PlanCache.
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
// snapshotted through the store codec — periodically via FlushLedgers and
// on Close — and replayed on startup, so per-key spend survives a daemon
// restart; a corrupt ledger snapshot refuses startup rather than silently
// handing tenants a fresh budget.
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
// error bodies ("request_id"), in the structured request log, and — for
// distributed releases — rides the fabric task frames so a worker's task
// logs carry the coordinator's ID.
//
// With Config.Logger set, each request emits one log/slog record:
// method, path, status, duration_ms, request_id, and (when
// authenticated) api_key — always the redactKey fingerprint, never the
// raw credential. Fabric workers additionally log one record per
// executed task (kind, dataset, range, request_id, duration_ms). Logs
// and metrics never contain cell counts, noisy answers or raw keys.
//
// GET /v1/metrics serves JSON counters plus "latency" (per-endpoint
// p50/p95/p99/mean, bucket-derived) and "stages" (per engine stage:
// plan, allocate, measure, recover, consist) sections; with
// ?format=prometheus it serves the same registry in Prometheus text
// format v0.0.4. Metric families: dpcubed_requests_total,
// dpcubed_request_errors_total and dpcubed_request_duration_seconds
// (label endpoint), dpcubed_stage_duration_seconds (label stage),
// dpcubed_fabric_task_duration_seconds (label kind, worker mode),
// budget/cache/store gauges (dpcubed_budget_*, dpcubed_plan_cache_*,
// dpcubed_rescache_*, dpcubed_datasets_resident,
// dpcubed_inflight_requests) and Go runtime stats (go_goroutines,
// go_heap_alloc_bytes, go_gc_pause_seconds_total, ...).
//
// A release-shaped request may set "debug_timing": true to receive a
// "timing" field: the release's span tree (stage durations, shard
// fan-out, result-cache verdict, per-task fabric attempts and hedges).
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
	"crypto/subtle"
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
	"repro/internal/fabric"
	"repro/internal/rescache"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Config sizes the server.
type Config struct {
	// EpsilonCap / DeltaCap bound the ledger's cumulative spend (required:
	// EpsilonCap > 0, DeltaCap in [0, 1); a zero DeltaCap admits only
	// pure-DP requests).
	EpsilonCap float64
	DeltaCap   float64
	// MaxWorkers bounds per-request engine parallelism; a request asking
	// for more is clamped. 0 means all CPUs.
	MaxWorkers int
	// MaxShards bounds per-request measure-stage sharding; a request asking
	// for more is clamped. 0 leaves the engine's auto-sharding in charge.
	MaxShards int
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
	// MaxIngestBytes bounds a PUT /v1/datasets stream (0 = unlimited —
	// ingestion is bounded-memory by construction, so the body limit is a
	// policy knob, not a safety one).
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
	// FabricWorkers lists shard-worker base URLs ("http://host:port");
	// non-empty makes this process a fabric coordinator: dataset-backed
	// release and synthetic requests distribute their Measure and Recover
	// stages across the fleet, bit-identical to local execution at any
	// fleet size (see internal/fabric).
	FabricWorkers []string
	// FabricAPIKey is the fleet secret. A coordinator presents it
	// (X-API-Key) on every fabric task; a FabricWorker requires it on
	// POST /v1/fabric/task. It is deliberately distinct from the tenant
	// APIKeys — tenant keys never authenticate fabric tasks, because the
	// task endpoint bypasses the budget ledger (the coordinator charged at
	// admission) and a tenant reaching it could replay arbitrary-seed
	// measure tasks to average the noise away. New refuses a FabricWorker
	// whose FabricAPIKey is empty while tenant auth is on, or equal to any
	// tenant key.
	FabricAPIKey string
	// FabricTaskTimeout bounds one remote task attempt (0 = 30s).
	FabricTaskTimeout time.Duration
	// FabricRetries is how many additional remote attempts a failed task
	// gets before local re-execution (0 = default 1; negative disables).
	FabricRetries int
	// FabricHedgeAfter starts a local re-execution of a still-running
	// remote task after this long (0 = half the task timeout; negative
	// disables hedging).
	FabricHedgeAfter time.Duration
	// FabricWorker additionally serves POST /v1/fabric/task, making this
	// process usable as a shard worker by some other coordinator. A worker
	// executes tasks against its own dataset store; the coordinator's
	// fingerprint handshake refuses a worker whose copy diverged. The task
	// endpoint authenticates with FabricAPIKey only, never tenant keys.
	FabricWorker bool
	// Logger, when non-nil, receives one structured record per routed
	// request (and per executed fabric task in worker mode): method, path,
	// status, duration, request ID, and — when authenticated — the
	// redacted API key. Nil disables request logging.
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
	fabric  *fabric.Coordinator // nil without FabricWorkers
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
	if cfg.FabricWorker {
		// The task endpoint bypasses the budget ledger, so it must never be
		// reachable with a tenant credential: a tenant replaying
		// arbitrary-seed measure tasks could average the noise out of any
		// resident dataset without spending a drop of budget.
		if cfg.FabricAPIKey == "" && len(cfg.APIKeys) > 0 {
			return nil, fmt.Errorf("%w: FabricWorker with tenant APIKeys requires a FabricAPIKey (tenant keys never authenticate fabric tasks)",
				repro.ErrInvalidOption)
		}
		if cfg.FabricAPIKey != "" && keys[cfg.FabricAPIKey] {
			return nil, fmt.Errorf("%w: FabricAPIKey must be distinct from every tenant API key",
				repro.ErrInvalidOption)
		}
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
	if len(cfg.FabricWorkers) > 0 {
		s.fabric = fabric.New(fabric.Config{
			Workers:     cfg.FabricWorkers,
			APIKey:      cfg.FabricAPIKey,
			TaskTimeout: cfg.FabricTaskTimeout,
			Retries:     cfg.FabricRetries,
			HedgeAfter:  cfg.FabricHedgeAfter,
		})
	}
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
	if cfg.FabricWorker {
		// Worker task endpoint. Counted like any other endpoint (task
		// traffic shows up in /v1/metrics, and Drain waits for in-flight
		// tasks), but authenticated by the fleet secret alone: the frames
		// never touch a budget ledger — the coordinator charged at
		// admission — so a tenant key must not open this door (see
		// Config.FabricAPIKey).
		exec := &fabric.Executor{Store: st, Cache: s.cache, Workers: cfg.MaxWorkers, Log: cfg.Logger, Metrics: tele}
		s.routeFabric("POST /v1/fabric/task", func(w http.ResponseWriter, r *http.Request) {
			exec.ServeHTTP(w, r)
		})
	}
	// Health endpoints bypass authentication (and the metrics counters):
	// load balancers and fabric coordinators probe them without credentials,
	// and a probe must never burn an auth failure into the error counts.
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
	datasets := s.tele.Gauge("dpcubed_datasets_resident", "Datasets resident in the store.")
	datasetCells := s.tele.Gauge("dpcubed_dataset_cells", "Total contingency cells across resident datasets.")
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
		st := s.store.Stats()
		datasets.Set(float64(st.Datasets))
		datasetCells.Set(float64(st.TotalCells))
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
	s.handle(pattern, h, false)
}

// routeFabric registers the shard-task endpoint with the same
// instrumentation as route, but authenticated by the fabric fleet secret
// instead of the tenant key set. With no FabricAPIKey configured the
// endpoint is open — New only permits that when the whole server runs
// unauthenticated.
func (s *Server) routeFabric(pattern string, h http.HandlerFunc) {
	s.handle(pattern, h, true)
}

func (s *Server) handle(pattern string, h http.HandlerFunc, fabricAuth bool) {
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
		var key string
		var authErr error
		if fabricAuth {
			authErr = s.authenticateFabric(r)
		} else {
			key, authErr = s.authenticate(r)
		}
		if authErr != nil {
			writeJSON(sw, http.StatusUnauthorized, errorResponse{Error: authErr.Error(), RequestID: rid})
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
// logs, spans and fabric frames), anything else gets a fresh one. The
// sanity check bounds length and rejects control/quote characters — the
// ID lands verbatim in response headers and structured logs.
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

// authenticateFabric admits a fabric task only when the presented key is
// the fleet secret. Tenant keys are deliberately not consulted: the task
// endpoint bypasses the budget ledger, so tenant credentials must never
// reach it. The comparison is constant-time and the error never echoes the
// presented key.
func (s *Server) authenticateFabric(r *http.Request) error {
	if s.cfg.FabricAPIKey == "" {
		return nil
	}
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if ah := r.Header.Get("Authorization"); strings.HasPrefix(ah, "Bearer ") {
			key = strings.TrimPrefix(ah, "Bearer ")
		}
	}
	if subtle.ConstantTimeCompare([]byte(key), []byte(s.cfg.FabricAPIKey)) != 1 {
		return errors.New("fabric task requires the fleet's fabric API key (X-API-Key header or Authorization: Bearer)")
	}
	return nil
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
// written. The daemon calls it periodically alongside FlushPlans so a
// crash loses at most one flush interval of spend — and Close calls it so
// a graceful restart loses none.
func (s *Server) FlushLedgers() (int, error) {
	return s.store.SaveLedgers(s.ledgers)
}

// Drain marks the server not-ready (GET /v1/readyz answers 503, so load
// balancers and fabric coordinators stop sending work) and waits for every
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

// Fabric exposes the coordinator (nil without FabricWorkers); tests and
// embedders read its Metrics.
func (s *Server) Fabric() *fabric.Coordinator { return s.fabric }

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
	Workers         int    `json:"workers,omitempty"`
	Shards          int    `json:"shards,omitempty"`
	Label           string `json:"label,omitempty"`
	// Partition names the disjoint population slice this release touches,
	// for parallel composition in the ledger; empty means the whole
	// population.
	Partition string `json:"partition,omitempty"`

	// SyntheticSeed seeds tuple sampling on /v1/synthetic.
	SyntheticSeed int64 `json:"synthetic_seed,omitempty"`
	// MaxOrder bounds the cuboid order on /v1/cube.
	MaxOrder int `json:"max_order,omitempty"`

	// DebugTiming embeds the release's span tree — stage durations, shard
	// fan-out, cache verdict, fabric attempts/hedges — in the response as
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
}

type syntheticResponse struct {
	syntheticBody
	Budget budgetJSON `json:"budget"`
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
	PlanCache   cacheJSON                    `json:"plan_cache"`
	ResultCache *cacheJSON                   `json:"result_cache,omitempty"`
	// Coalesced counts requests answered by another identical request's
	// in-flight execution (single-flight; see the package doc).
	Coalesced uint64      `json:"coalesced_requests"`
	Datasets  store.Stats `json:"datasets"`
	// Fabric reports the coordinator's per-worker task counters (present
	// only when FabricWorkers is configured).
	Fabric *fabric.Metrics `json:"fabric,omitempty"`
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
// decode → validate → trace → releaser → rescache.Do(charge → body) →
// write. Validation comes first, so a malformed request is a free 400 that
// plans nothing, registers (or evicts) no Releaser and charges nothing. A
// result-cache hit replays the stored payload BEFORE any charge: replaying
// the same noised output is free post-processing, paid for by the miss that
// computed it (see internal/rescache). On a miss, everything from admission
// on runs under the key's single-flight: a cold-key thundering herd admits
// one leader, and its followers share the payload without charging.
// Post-charge failures are wrapped so only the leader answers with the
// retained-charge contract.
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
	if ep.releaser {
		if c.rel, err = s.releaser(r.Context(), c); err != nil {
			s.fail(w, r, err)
			return
		}
	}
	root := telemetry.TraceFrom(r.Context()).Root()
	var wait *telemetry.Span
	payload, outcome, err := s.results.Do(r.Context(), s.resultKey(ep.name, c), req.DatasetID, func() ([]byte, error) {
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
	return json.Marshal(releaseBody{
		Strategy:      res.Strategy,
		TotalVariance: res.TotalVariance,
		Tables:        tablesJSON(res),
	})
}

// renderSynthetic runs /v1/synthetic: a release, then tuples sampled from
// it. Sampling is seeded by synthetic_seed (part of the result key), so a
// repeated request replays the identical sample, and it is free
// post-processing — no further ledger spend.
func (s *Server) renderSynthetic(r *http.Request, c *releaseCall) ([]byte, error) {
	res, err := s.release(r, c)
	if err != nil {
		return nil, err
	}
	ssp := telemetry.TraceFrom(r.Context()).Root().Start("sample")
	syn, err := c.rel.Synthetic(r.Context(), res, c.req.SyntheticSeed)
	ssp.End()
	if err != nil {
		return nil, err
	}
	rows := syn.Rows
	if rows == nil {
		rows = [][]int{}
	}
	return json.Marshal(syntheticBody{
		Strategy: res.Strategy,
		Count:    syn.Count(),
		Rows:     rows,
	})
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
		Workers:       s.workers(req.Workers),
		Shards:        s.shards(req.Shards),
		Cache:         s.cache,
	})
	if err != nil {
		return nil, err
	}
	cuboids := make([]marginalJSON, len(cube.Lattice.Cuboids))
	for i, cb := range cube.Lattice.Cuboids {
		attrs := cb.Attrs
		if attrs == nil {
			attrs = []int{}
		}
		cuboids[i] = marginalJSON{Attrs: attrs, Cells: cube.Tables[i], Variance: cube.CellVariance[i]}
	}
	return json.Marshal(cubeBody{
		MaxOrder:      req.MaxOrder,
		TotalVariance: cube.TotalVariance,
		Cuboids:       cuboids,
	})
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
	var fm *fabric.Metrics
	if s.fabric != nil {
		m := s.fabric.Metrics()
		fm = &m
	}
	writeJSON(w, http.StatusOK, metricsResponse{
		Endpoints:   eps,
		Latency:     lat,
		Stages:      stages,
		Budget:      metricsBudget(s.ledgers.Global()),
		Composition: s.ledgers.Composition().Name(),
		PerKey:      perKey,
		PlanCache:   cacheJSON{Hits: cs.Hits, Misses: cs.Misses, Entries: cs.Entries},
		ResultCache: rc,
		Coalesced:   s.coalesced.Value(),
		Datasets:    s.store.Stats(),
		Fabric:      fm,
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
	opts := store.IngestOptions{Workers: s.cfg.MaxWorkers}
	var (
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

// handleHealthz is liveness: the process is up and serving HTTP. It is the
// fabric coordinator's worker probe target, and it never says no — a
// draining process is still alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok"})
}

// handleReadyz is readiness: the store is open with its snapshots loaded
// and the ledgers restored — both preconditions of New, so a constructed
// server is ready until it starts draining. 503 tells load balancers and
// coordinators to route elsewhere while in-flight work finishes.
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
	w, err := workloadOf(schema, req.Workload)
	if err != nil {
		return nil, err
	}
	key := releaserKey(schema, req, kind)
	s.mu.Lock()
	r, ok := s.releasers[key]
	s.mu.Unlock()
	if ok {
		return r, nil
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
	if s.fabric != nil {
		// One coordinator serves every Releaser: the fleet is server-wide
		// state, and fabric attachment never enters the registry key because
		// it never changes a released bit.
		opts = append(opts, repro.WithFabric(s.fabric))
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
	b.WriteString(",s")
	b.WriteString(strconv.Itoa(s.shards(req.Shards)))
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
func (s *Server) writeSpliced(w http.ResponseWriter, r *http.Request, payload []byte) {
	bb, err := json.Marshal(s.budgetFor(apiKeyFrom(r.Context())))
	if err != nil {
		s.fail(w, r, err)
		return
	}
	var tb []byte
	if tr := telemetry.TraceFrom(r.Context()); tr.Detail() {
		if tb, err = json.Marshal(tr.Tree()); err != nil {
			s.fail(w, r, err)
			return
		}
	}
	buf := make([]byte, 0, len(payload)+len(bb)+len(tb)+24)
	buf = append(buf, payload[:len(payload)-1]...)
	buf = append(buf, `,"budget":`...)
	buf = append(buf, bb...)
	if tb != nil {
		buf = append(buf, `,"timing":`...)
		buf = append(buf, tb...)
	}
	buf = append(buf, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// release runs the mechanism over whichever data source the request
// carried. Dataset-backed requests go through ReleaseDataset so an
// attached fabric coordinator can distribute the stages (inline rows and
// counts carry no dataset identity for the worker handshake, so they
// always run locally — bit-identical either way). The cube endpoint stays
// local too: its mechanism runs one sub-release per cuboid through its own
// pipeline, below the granularity the fabric ships.
func (s *Server) release(r *http.Request, c *releaseCall) (*repro.Result, error) {
	if c.h != nil {
		return c.rel.ReleaseDataset(r.Context(), c.h, s.spec(&c.req))
	}
	return c.rel.ReleaseBlocked(r.Context(), c.x, s.spec(&c.req))
}

// spec maps the request's per-call parameters, clamping workers and shards
// to the server bounds.
func (s *Server) spec(req *releaseRequest) repro.ReleaseSpec {
	return repro.ReleaseSpec{
		Epsilon: req.Epsilon,
		Delta:   req.Delta,
		Seed:    req.Seed,
		Workers: s.workers(req.Workers),
		Shards:  s.shards(req.Shards),
		Label:   req.Label,
	}
}

// workers clamps a requested per-request worker count to the server bound.
// An absent request value adopts the bound itself: 0 would mean "all CPUs"
// downstream, which is exactly what MaxWorkers exists to cap.
func (s *Server) workers(requested int) int {
	max := s.cfg.MaxWorkers
	if requested <= 0 {
		return max
	}
	if max > 0 && requested > max {
		return max
	}
	return requested
}

// shards caps a requested per-request shard count at the server bound.
// Unlike workers, an absent value stays 0 — the engine's auto-sharding —
// because MaxShards guards against fragmentation, and forcing every
// request to the cap would itself fragment small releases.
func (s *Server) shards(requested int) int {
	if requested <= 0 {
		return 0
	}
	if max := s.cfg.MaxShards; max > 0 && requested > max {
		return max
	}
	return requested
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
	c := repro.BudgetCharge{
		Label:     label,
		Epsilon:   req.Epsilon,
		Delta:     req.Delta,
		Partition: req.Partition,
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Package repro is a from-scratch Go implementation of "Accurate and
// Efficient Private Release of Datacubes and Contingency Tables" (Cormode,
// Procopiuc, Srivastava, Yaroslavtsev; ICDE 2013): differentially private
// release of marginals, datacubes and contingency tables through the
// strategy / optimal-noise-budgeting / recovery framework, with Fourier
// consistency.
//
// # Quick start
//
// The service API is a long-lived Releaser, constructed once per
// (schema, workload) with functional options and then asked for any number
// of releases — each an independent DP mechanism run with its own
// (ε, δ, seed):
//
//	schema := repro.MustSchema([]repro.Attribute{
//		{Name: "age-band", Cardinality: 8},
//		{Name: "smoker", Cardinality: 2},
//	})
//	workload := repro.AllKWayMarginals(schema, 1)
//	releaser, err := repro.NewReleaser(schema, workload,
//		repro.WithStrategy(repro.StrategyFourier),
//		repro.WithBudgetCap(4.0, 0), // refuse releases past total ε = 4
//	)
//	// ...
//	table := &repro.Table{Schema: schema, Rows: rows}
//	release, err := releaser.Release(ctx, table, repro.ReleaseSpec{
//		Epsilon: 0.5,
//		Seed:    1,
//	})
//
// Construction pre-plans the Step-1 strategy and warms the Releaser's plan
// cache; because planning is privacy-independent, every subsequent release
// (any ε, any seed, any fresh data) reuses that single plan. For the
// cluster strategy the plan search costs orders of magnitude more than a
// release, so this is the difference between a service and a batch job.
// Every release call accepts a context.Context: cancelling it (a client
// disconnect, a deadline) aborts the engine mid-stage instead of burning
// CPU on an answer nobody will read.
//
// Each layer has one release entry. A Releaser answers tables
// (Releaser.Release), sharded contingency vectors (Releaser.ReleaseBlocked,
// with NewBlockedVector for a dense slice) and ingested datasets
// (Releaser.ReleaseDataset); the one-shot Release and ReleaseCube run a
// table through a throwaway Releaser or the datacube layer, and
// ReleaseCubeBlockedContext is the cube's vector-and-context form. Below
// the package every marginal path ends in the staged engine's single entry,
// engine.(*Engine).RunVector, over a blocked vector.
//
// # Budget accounting
//
// A BudgetLedger tracks cumulative (ε, δ) spend across releases with a
// hard cap — sequential composition with a stop, plus parallel composition
// across disjoint population partitions (ReleaseSpec.Partition). Attach
// one with WithBudgetCap (private ledger) or WithBudgetLedger (shared
// across many Releasers — a serving process enforcing one budget over all
// its schemas and workloads).
//
// How charges fold into total spend is pluggable (WithComposition):
// BasicComposition is plain (ε, δ)-summation; ZCDPComposition accounts in
// zero-concentrated DP — each charge converts to a ρ cost (exactly, when
// the charge carries the Gaussian σ; otherwise from its (ε, δ) under this
// package's noise calibration), ρ adds up, and spend reports as the tight
// (ε, δ) at a target δ. Under zCDP a long sequence of small Gaussian
// releases fits under caps that plain summation exhausts — fifty
// (ε=0.05, δ=1e-9) releases compose to roughly ε≈0.29 at δ=1e-6 instead
// of the summed ε=2.5.
//
// Multi-tenant accounting: WithBudgetCaps attaches a BudgetRegistry — one
// ledger per key, each under its own (or the inherited global) cap, plus
// the global ledger that every charge also passes through. A release
// names its tenant with ReleaseSpec.Key; admission is all-or-nothing
// across the key's ledger and the global one, so one tenant exhausting
// its budget neither consumes nor unblocks another's, while the global
// cap still bounds the whole deployment. The HTTP layer keys this by API
// key (see below).
//
// The semantics of "spend": every admitted Releaser release call
// charges exactly its ReleaseSpec (ε, δ), atomically, before the mechanism
// runs — concurrent releases can never jointly pass the cap, and a refused
// release (ErrBudgetExhausted) spends nothing and never touches the data.
// A release that fails after admission (including context cancellation)
// stays charged: the conservative reading that keeps the guarantee sound
// under partial executions — noise may already have been drawn against the
// data when the failure surfaced, and refunding would let a caller replay
// aborted releases for free. Post-processing is free: the consistency
// projection (or skipping it via WithoutConsistency) and synthetic-data
// generation (Releaser.Synthetic, SyntheticData) never change what a
// release costs.
//
// Construction-time and admission-time failures carry typed errors —
// ErrInvalidEpsilon, ErrInvalidDelta, ErrDimensionMismatch,
// ErrBudgetExhausted, ErrInvalidOption — test with errors.Is.
//
// # Serving over HTTP: upload once, release many
//
// internal/server + cmd/dpcubed wrap the service API in a JSON-over-HTTP
// daemon built around the upload-once / release-many flow. The sensitive
// relation is ingested exactly once, as streaming NDJSON:
//
//	PUT /v1/datasets/people
//	{"schema":[{"name":"age-band","cardinality":8},{"name":"smoker","cardinality":2}]}
//	[0,1]
//	[3,0]
//	...
//
// Each line is decoded, validated and counted into the dataset's
// aggregated contingency vector by one serial scanner, then dropped —
// ingestion memory is bounded no matter how many rows stream past, and a
// malformed stream rejects atomically (no partial dataset). A growing relation
// appends deltas instead of re-uploading: PUT /v1/datasets/{id}?mode=append
// sums a new stream's aggregate into the resident one (schemas must match;
// transactional on failure). Ingestion never charges the budget ledger:
// privacy is spent when answers leave, not when data arrives.
//
// After that, any number of releases reference the dataset by id instead
// of hauling rows in every body:
//
//	POST /v1/release    {"dataset_id":"people","workload":{"k":2},"epsilon":0.5,"seed":1}
//	POST /v1/cube       {"dataset_id":"people","max_order":2,"epsilon":1}
//	POST /v1/synthetic  {"dataset_id":"people","workload":{"k":1},"epsilon":0.5}
//	GET  /v1/budget     — the caller's spend against its cap (plus the global view)
//	GET  /v1/metrics    — per-endpoint counters, per-key spend, cache and store stats
//
// The daemon is multi-tenant: with API keys configured (dpcubed
// -api-keys, or server.Config.APIKeys) every request authenticates and
// spends against its own per-key ledger under a still-binding global cap,
// and ledger charge histories persist through the same snapshot codec as
// datasets, so no tenant's spend resets on restart. dpcubed -composition
// zcdp switches all ledgers to zCDP accounting.
//
// A dataset_id release is bit-identical to the equivalent rows-in-body
// request at the same seed: the stored aggregate is exactly what
// Table.Vector would have produced, fed straight to the engine
// (Releaser.ReleaseDataset is the programmatic form). Deleting a dataset
// never tears an in-flight release — handles are reference-counted, so a
// release that admitted against a dataset finishes against that version.
//
// With -store-dir, datasets persist as versioned snapshots (schema +
// aggregated counts, never raw rows — see internal/store) and a restarted
// daemon serves them without re-upload; warm cluster plans persist through
// the same codec, so the expensive Step-1 search is not repeated either.
// One Releaser registry and plan cache are shared across requests, the
// typed errors map to 4xx statuses (budget exhaustion is 429, an unknown
// dataset 404), and shutdown is graceful. See examples/server for an
// in-process round trip, cmd/dpcubed for the daemon, and cmd/dpcube
// -ingest for streaming a local CSV/NDJSON file up to it.
//
// # Performance: the result cache and the hot-path audit
//
// The serving layer caches fully rendered release payloads
// (internal/rescache): a repeated identical dataset-backed request —
// the common case behind a dashboard refresh — is answered from an LRU
// with the exact bytes of the run that computed it, skipping the engine
// entirely. A hit does NOT recharge the budget ledger. The justification
// is the engine's determinism contract: a release is a pure function of
// (dataset version, workload, strategy, budgeting, consistency, ε, δ,
// seed), all of which are in the cache key, so replaying the cached payload
// reveals exactly the already-released noisy output — free
// post-processing under DP, identical to the client replaying its own
// copy of the response. The worker bound is a server setting, not a
// request field, and stays out of the key (the engine is bit-identical at
// every parallelism); inline-rows
// requests are never cached (no version to key on), and any dataset
// mutation — replace, append, delete — invalidates that dataset's
// entries through a store change hook, with the version in the key as a
// second line of defence. /v1/metrics reports hits, misses and resident
// entries; Config.ResultCacheSize sizes the LRU (negative disables). The
// cache owns single-flight too (rescache.Cache.Do): every release-shaped
// endpoint runs one serving flow whose one caching call coalesces a cold
// herd of identical requests into one execution and one ledger charge.
//
// A request the result cache misses — a fresh seed or ε over the same
// dataset — still skips the data scan: each cached plan keeps the exact
// strategy answers S·x of its last release over a dataset snapshot, keyed
// by the snapshot's identity, so the engine copies them and only draws
// noise (and charges the ledger as usual). Caller-owned vectors (Release,
// ReleaseBlocked, inline rows) are never memoised; see internal/engine's
// "Cache semantics" for the key, invalidation and byte bound.
//
// Under the cache, the engine's inner loops are audited to near-zero
// allocation: the WHT butterfly kernel is cache-blocked and radix-4
// unrolled (bit-identical to the textbook dataflow, ~2× at 2^20 cells),
// the perturb stage reseeds one noise source per worker in place of
// per-block substream construction, and the consistency projection
// pools its per-marginal scratch. The TestAllocCeiling tests hold each
// stage, and each warm serving path, to a committed allocs/op ceiling.
// perfbench measures a live daemon end to end — latency percentiles,
// throughput, cache hit ratio and per-stage times — for example with
// bash perfbench/run.sh --workload dashboard-hot. For live diagnosis,
// dpcubed -pprof-addr serves net/http/pprof on a separate admin listener.
//
// # Observability
//
// The serving stack is instrumented end to end by internal/telemetry, a
// dependency-free metrics/tracing/logging core. Every request increments
// per-endpoint counters and a log-bucketed latency histogram; every
// release records per-stage wall time (plan/allocate/measure/recover/
// consist) into shared histograms. GET /v1/metrics reports bucket-derived
// p50/p95/p99 summaries in JSON, and ?format=prometheus (also /metrics
// on the -pprof-addr admin listener) exposes everything — including Go
// runtime gauges — in Prometheus text format. Requests carry a
// correlation ID (inbound X-Request-Id honored, otherwise generated and
// echoed) that flows through structured slog request logs and into error
// bodies. A release request with "debug_timing": true gets its full span
// tree — stage durations, shard fan-out, result-cache verdict — embedded
// in the response. With no trace installed the instrumentation is free:
// tests pin the nil-trace hot paths at zero allocations. Metrics and
// logs never contain cell counts, noisy answers or raw API keys (keys
// appear only as short fingerprints).
//
// # The staged, blocked release engine
//
// Under the hood every release runs through the staged pipeline of
// internal/engine, mirroring the paper's three-step framework (Figure 3):
//
//	Plan → Allocate → Measure → Recover → Consist
//
// Plan builds (or fetches from a cache) the grouped strategy matrix;
// Allocate computes the Step-2 noise budgets; Measure perturbs the strategy
// answers; Recover reconstructs the marginals; Consist projects them onto a
// mutually consistent set.
//
// The 2^d contingency vector travels as a blocked vector, contiguous
// cell-range blocks instead of one giant slice (internal/vector;
// BlockedVector and Releaser.ReleaseBlocked are the public face). A
// dataset-store aggregate feeds releases in the form the store holds it,
// dense blocks or a sparse list of non-zeros, without ever being gathered.
// The measure stage returns the strategy answers z = S·x + ν as one dense
// slice, which recovery reads directly: each strategy computes S·x across
// the worker pool, and the noise pass splits z into fixed row blocks. The
// consistency projection fans its per-marginal transforms, per-coefficient
// weighted average and reconstruction over the same pool. Worker counts
// and input blockings never change a single bit of a release:
// noise is drawn from per-group seed substreams and every accumulation
// order is blocking-independent, so a release is a pure function of
// (data, workload, spec) and the same Seed is bit-reproducible at any
// parallelism. Cancellation propagates into the worker pools.
//
// # Static invariants
//
// The contracts above are not just prose: dpvet (internal/analysis +
// cmd/dpvet) machine-enforces the ones that are properties of code shape,
// and CI fails on any unsuppressed finding. detmap guards bit-identity —
// no map iteration may feed an append, float/string accumulation, wire
// encoding or channel send in the deterministic packages; seedflow guards
// reproducibility — pipeline packages draw randomness only through
// noise.Source substreams, never math/rand, crypto/rand or clock-derived
// seeds; keyleak guards credential hygiene — API keys reach logs, errors
// and metrics only as redaction fingerprints; ctxflow guards the
// cancellation chain — a function holding a request context may not
// detach via context.Background()/TODO() without an annotated reason; and
// errsink guards the error surface — handlers route failures through the
// typed-error mapper, never raw err.Error() bodies. Deliberate deviations
// are annotated in source with a mandatory written rationale and survive
// in the CI audit report; see internal/analysis for the analyzer
// contracts and the suppression grammar.
//
// The internal packages follow the paper's structure: internal/strategy
// (Step 1), internal/budget (Step 2, Section 3.1), internal/consistency
// (Step 3, Sections 3.3 and 4.3), internal/engine (the staged mechanism,
// entered only through RunVector) with internal/core holding the
// data-independent Preview forecast and the Table-1 bounds,
// internal/vector as the sharded-vector substrate, internal/accountant
// (the ledger under BudgetLedger), internal/server (the HTTP layer), and
// internal/transform, internal/noise, internal/bits and internal/dataset as
// self-contained substrates. internal/recovery is the dense reference for
// the GLS recovery of Section 3.2, off the serving path: it computes the
// Section 1 worked example and is the oracle the engine's recovery and
// consistency are tested against. See
// EXPERIMENTS.md for the reproduction of every table and figure in the
// paper's evaluation.
package repro

// Package telemetry is the dependency-free observability core of the
// serving stack: atomic counters, gauges and log-bucketed latency
// histograms in a registry with Prometheus text exposition, a
// context-carried span tree tracing one release through the engine
// pipeline, request-ID plumbing, and log/slog construction helpers.
// It imports nothing outside the standard library, so every layer —
// engine, server, the CLIs — can instrument itself without a
// dependency cycle or a third-party module.
//
// # Histogram bucketing
//
// Histograms are log-bucketed: LatencyBuckets returns bounds doubling
// from 10µs to ~168s (25 bounds plus the implicit +Inf bucket), so two
// decades of latency fit in a fixed, allocation-free structure and any
// quantile is derivable from the bucket counts alone. An observation
// lands in the first bucket whose upper bound is >= the value
// (Prometheus "le" semantics: bounds are inclusive), and Quantile
// interpolates linearly inside the chosen bucket — p50/p95/p99 are
// estimates whose error is bounded by the bucket width, which the
// doubling keeps at a constant relative ~2x. Recording is lock-free
// (one atomic add per observation plus a CAS loop for the sum), so
// histograms sit on request hot paths.
//
// # Traces
//
// A Trace is one request's span tree: the server installs it in the
// request context, the engine opens one span per pipeline stage
// (StartStage also records the duration into the registry's
// per-stage histogram), and sub-spans — per measured block, per
// recovered marginal — are created only when the trace was built with
// detail on (the "debug_timing" request flag). Every method is
// nil-receiver safe and a nil trace costs zero allocations: library
// callers that never install a trace pay nothing, a contract pinned by
// alloc tests in internal/engine.
//
// # Privacy stance
//
// Telemetry must never widen the privacy surface. Metrics carry only
// operational aggregates (counts, durations, byte sizes); spans carry
// stage names, row ranges, worker URLs and attempt counts; logs carry
// request metadata. None of them may ever contain cell counts, noisy
// answers, raw rows, or tenant API keys — keys appear in logs only
// through the server's redactKey fingerprint, a behavior pinned by
// test. Dataset identifiers (operator-chosen names, never data) are
// the only payload-adjacent strings that appear.
package telemetry

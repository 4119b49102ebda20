// Command dpcubed serves differentially private marginal, datacube and
// synthetic-data releases over JSON/HTTP — the long-lived deployment shape
// of the paper's mechanisms, where the expensive strategy planning is done
// once per (schema, workload) and amortised across requests through a
// shared plan cache, while budget ledgers enforce per-tenant and global
// (ε, δ) caps across everything the process ever releases.
//
// Endpoints (see internal/server):
//
//	PUT    /v1/datasets/{id} — ingest a dataset once (streaming NDJSON)
//	GET    /v1/datasets      — list resident datasets
//	DELETE /v1/datasets/{id} — remove a dataset
//	POST   /v1/release       — private marginals (rows, counts or dataset_id)
//	POST   /v1/cube          — private datacube up to max_order
//	POST   /v1/synthetic     — release + row-level synthetic microdata
//	GET    /v1/budget        — cumulative privacy spend vs. the cap
//	GET    /v1/metrics       — request/error counters, spend, cache, store
//	GET    /v1/healthz       — liveness (unauthenticated)
//	GET    /v1/readyz        — readiness (unauthenticated; 503 while draining)
//
// Usage:
//
//	dpcubed -addr :8080 -epsilon-cap 10 -store-dir /var/lib/dpcubed
//	dpcube -ingest people.csv -server http://localhost:8080 -dataset people
//	curl -s -X POST localhost:8080/v1/release \
//	    -d '{"dataset_id":"people","workload":{"k":2},"epsilon":0.5,"seed":1}'
//	curl -s localhost:8080/v1/budget
//
// Multi-tenant serving: -api-keys names a file of "key [ε-cap [δ-cap]]"
// lines (or set DPCUBED_API_KEYS to comma-separated key[:ε[:δ]] entries);
// every request must then present its key via X-API-Key or a Bearer
// token, and spends against that key's own ledger while the global cap
// still binds across all keys. -composition zcdp switches the ledgers to
// Rényi/zCDP accounting (-target-delta sets the reporting δ, default the
// δ cap), under which long sequences of small Gaussian releases compose
// far tighter than plain summation.
//
// With -store-dir, ingested datasets are persisted as snapshots (schema +
// aggregated counts, never raw rows) and reloaded on restart, so the
// daemon answers releases for previously ingested datasets without
// re-upload; warm cluster plans and the ledgers' charge histories are
// persisted on graceful shutdown and every -plan-flush interval. A graceful
// restart keeps all privacy spend, but a crash (kill -9, OOM) loses every
// charge since the last snapshot; with the default -plan-flush 0 there is
// no periodic snapshot, so after a crash the spend restarts from the last
// graceful shutdown, or from 0.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get -drain to finish, new connections are refused, and the final budget
// ledgers (global and per key) are printed to stderr so the spend
// survives in the logs. /v1/readyz answers 503 during the drain so load
// balancers stop routing first; plans and ledgers are snapshotted only
// after the last in-flight release handler has returned.
//
// Profiling: -pprof-addr (e.g. -pprof-addr localhost:6060) serves
// net/http/pprof on a SEPARATE admin listener — never on the public -addr,
// so exposing the API does not expose heap and CPU profiles. It is off by
// default; bind it to localhost or an internal interface only. Profiles
// reveal operational detail (allocation sites, goroutine stacks), not
// released data, but they are still nobody's business. The same admin
// listener serves Prometheus metrics at /metrics (identical to
// GET /v1/metrics?format=prometheus on the public address, but
// unauthenticated and off the tenant-facing surface).
//
//	dpcubed -addr :8080 -pprof-addr localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/heap
//	curl -s localhost:6060/metrics | head
//
// # Observability
//
// -log-level (debug|info|warn|error) and -log-format (json|text) select
// the structured log/slog output on stderr: one record per request with
// method, path, status, duration and request_id (inbound X-Request-Id is
// honored, otherwise one is generated and echoed on the response). API
// keys appear in logs only as short fingerprints, never verbatim. See
// internal/server and internal/telemetry for the metric families.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // admin-listener profiles, gated by -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		epsCap     = flag.Float64("epsilon-cap", 10, "total privacy budget ε the process may ever spend")
		deltaCap   = flag.Float64("delta-cap", 1e-3, "total δ the process may ever spend (0 admits only pure-DP requests)")
		maxWorkers = flag.Int("max-workers", 0, "per-request engine worker bound (0 = all CPUs)")
		maxShards  = flag.Int("max-shards", 0, "per-request measure-stage shard bound (0 = engine auto-sharding)")
		cacheSize  = flag.Int("cache-size", 0, "shared plan cache entries (0 = default)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		storeDir   = flag.String("store-dir", "", "dataset snapshot directory; empty keeps datasets in memory only")
		planFlush  = flag.Duration("plan-flush", 0, "periodic plan+ledger snapshot flush interval (0 = only on graceful shutdown, so a crash forgets all spend since then); needs -store-dir")
		maxData    = flag.Int("max-datasets", 0, "resident dataset bound (0 = unlimited; past it the LRU unpinned dataset is evicted)")
		apiKeys    = flag.String("api-keys", "", "API key file: one 'key [epsilon-cap [delta-cap]]' per line; empty falls back to $DPCUBED_API_KEYS, and with neither the server runs single-tenant and unauthenticated")
		compMode   = flag.String("composition", "basic", "budget accounting: basic ((ε,δ) summation) or zcdp (Rényi/zCDP, tight composition of many small releases)")
		targetDel  = flag.Float64("target-delta", 0, "δ at which zcdp accounting reports composed ε (0 = the delta cap)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof and /metrics on this separate admin address (empty = disabled); bind to localhost or an internal interface")
		logLevel   = flag.String("log-level", "info", "minimum structured-log level: debug, info, warn or error")
		logFormat  = flag.String("log-format", "json", "structured-log encoding on stderr: json or text")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpcubed:", err)
		os.Exit(2)
	}

	keys, err := loadKeys(*apiKeys)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpcubed:", err)
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		EpsilonCap:  *epsCap,
		DeltaCap:    *deltaCap,
		MaxWorkers:  *maxWorkers,
		MaxShards:   *maxShards,
		CacheSize:   *cacheSize,
		StoreDir:    *storeDir,
		MaxDatasets: *maxData,
		APIKeys:     keys,
		Composition: *compMode,
		TargetDelta: *targetDel,
		Logger:      logger,
		Metrics:     telemetry.Default(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpcubed:", err)
		os.Exit(2)
	}

	// The pprof handlers live on http.DefaultServeMux (blank import above);
	// the public listener below uses the server's own mux, so profiles —
	// and the unauthenticated /metrics scrape mounted here — are reachable
	// only through this opt-in admin address.
	if *pprofAddr != "" {
		http.Handle("/metrics", srv.MetricsHandler())
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("admin listener failed", "addr", *pprofAddr, "error", err.Error())
			}
		}()
		logger.Info("admin listener serving pprof and /metrics", "addr", *pprofAddr)
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// BaseContext is the default (request contexts cancel on client
		// disconnect), which is what threads cancellation into the engine.
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic snapshot flush: without it, plans planned — and budget
	// charged — since startup persist only on graceful shutdown, so a
	// crash loses the warm cache and up to one interval of recorded spend.
	if *planFlush > 0 && *storeDir != "" {
		go func() {
			tick := time.NewTicker(*planFlush)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if n, err := srv.FlushPlans(); err != nil {
						fmt.Fprintln(os.Stderr, "dpcubed: plan flush:", err)
					} else if n > 0 {
						fmt.Fprintf(os.Stderr, "dpcubed: flushed %d warm plan(s)\n", n)
					}
					if _, err := srv.FlushLedgers(); err != nil {
						fmt.Fprintln(os.Stderr, "dpcubed: ledger flush:", err)
					}
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", *addr, "epsilon_cap", *epsCap, "delta_cap", *deltaCap, "composition", *compMode)
		if len(keys) > 0 {
			logger.Info("API keys configured; requests must authenticate", "keys", len(keys))
		}
		if st := srv.Store().Stats(); st.Datasets > 0 {
			logger.Info("recovered datasets from store", "datasets", st.Datasets, "cells", st.TotalCells, "store_dir", *storeDir)
		}
		for _, q := range srv.Store().QuarantinedSnapshots() {
			logger.Warn("quarantined snapshot", "path", q)
		}
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "dpcubed: drain:", err)
		}
		// Shutdown returning (even in error) does not mean handlers have:
		// a release can still be mid-charge on a hijacked or timed-out
		// connection. Drain waits for every in-flight handler so the
		// snapshots below include their ledger charges and warm plans.
		if err := srv.Drain(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "dpcubed: drain:", err)
		}
		cancel()
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "dpcubed:", err)
			os.Exit(1)
		}
	}
	// Persist warm plans and ledger histories so the next process skips
	// re-planning and resumes every tenant's spend — the one thing that
	// must not vanish with the process.
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dpcubed: persisting snapshots:", err)
	}
	fmt.Fprint(os.Stderr, srv.BudgetSummary())
}

// loadKeys resolves the API key set: the -api-keys file when given,
// otherwise the DPCUBED_API_KEYS environment variable, otherwise none.
func loadKeys(path string) ([]server.KeyConfig, error) {
	if path != "" {
		return server.LoadAPIKeys(path)
	}
	if env := os.Getenv("DPCUBED_API_KEYS"); env != "" {
		return server.ParseAPIKeysEnv(env)
	}
	return nil, nil
}

// Package analysis is dpvet: a static-analysis suite that machine-enforces
// the repository's cross-cutting invariants — the contracts that hold the
// reproduction together but that no single unit test can pin, because they
// are properties of code shape, not of any one output.
//
// The suite mirrors the golang.org/x/tools/go/analysis architecture
// (Analyzer, Pass, Diagnostic, an analysistest harness with // want
// expectations) but is self-contained: the build environment is offline,
// so the loader reconstructs go/packages on top of `go list -deps -json`
// and the standard type checker. If x/tools ever becomes available the
// analyzers port over mechanically.
//
// # Analyzer contracts
//
// detmap — map iteration must not feed order-sensitive sinks in the
// determinism-critical packages (engine, strategy, vector, consistency,
// transform, telemetry, plus store/rescache/server for snapshot
// and payload byte-stability). Go randomizes map order per iteration; the
// bit-identity contract (serial oracle == parallel == sharded, byte for
// byte) cannot survive an append, float/string
// accumulation, wire encoding, or channel send whose order tracks a map.
// The collect-then-sort idiom is recognized and exempt.
//
// seedflow — pipeline packages draw randomness only through noise.Source
// substreams: imports of math/rand, math/rand/v2 and crypto/rand are
// banned there, and time.Now()-derived values must not flow into seeds.
// Every draw is a pure function of (master seed, substream index); that is
// what makes runs reproducible and the accuracy experiments re-runnable.
//
// errsink — HTTP handlers must not write raw err.Error() text into
// response bodies. Failures route through the server's typed-error mapper
// (statusCode + structured errorResponse carrying the request ID); the
// structured shape is recognized and exempt, an ad-hoc http.Error or
// Fprintf of an error value is not.
//
// keyleak — API-key values must reach fmt/log/slog/error sinks only as
// redaction fingerprints (accountant.RedactKey and friends; any callee
// whose name contains "redact" sanitizes). Taint is name-based: a
// string-shaped identifier or field whose normalized name is key-like.
//
// ctxflow — a function that receives a context.Context (including
// closures nested in one) must not call context.Background() or
// context.TODO(): that severs the cancellation chain the serving layer
// threads from the HTTP request through every pipeline stage.
//
// # Suppression grammar
//
// A deliberate deviation is annotated in source:
//
//	//dpvet:ignore <analyzer>[,<analyzer>...] -- <reason>
//
// On its own comment line the directive silences the NEXT line; trailing
// code it silences ITS OWN line. The marker must begin its comment —
// mentions inside prose or string literals are ignored. The reason is
// mandatory, and directive hygiene is itself checked: a directive that is
// malformed, names an unknown analyzer, or suppresses nothing is reported
// under the pseudo-analyzer "directive". Suppressed findings stay in the
// JSON report (suppressed: true) so the audit trail survives.
//
// # Drivers
//
// cmd/dpvet is the CLI multichecker (CI gate + scripts/lint.sh); Vet is
// the library entry point; VetPackage plus the analysistest subpackage
// exercise one analyzer against a testdata package.
package analysis

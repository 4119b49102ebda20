// Package engine is the staged, parallel release engine behind the paper's
// three-step mechanism. It decomposes what used to be a monolithic run into
// five explicit pipeline stages, each a small type with one method:
//
//	Plan     — Step 1: build (or fetch from the PlanCache) the grouped
//	           strategy matrix description for the workload.
//	Allocate — Step 2: closed-form uniform or optimal non-uniform per-group
//	           noise budgets, plus the Proposition 3.1 privacy re-check.
//	Measure  — noisy strategy answers z = Sx + ν, one dense slice.
//	Recover  — initial per-marginal recovery from the answers.
//	Consist  — Step 3: the optional consistency projection: per-marginal
//	           transforms, the per-coefficient weighted average and the
//	           reconstruction.
//
// Engine.RunVector wires the stages together and is the one release entry
// of the whole module: every marginal path — repro.Releaser, the datacube
// layer, the experiments harness — ends in RunVector(ctx, w, x, cfg) over
// a *vector.Blocked. Callers holding a dense slice pass the zero-copy view
// vector.FromDense(x); there is no separate dense or context-free form.
//
// # Parallelism
//
// Every stage that can split states its work in rows or cells and goes
// through one helper, package par: it runs serially unless each worker
// would get at least par.Grain units, and above that splits the stage's
// items into a few contiguous chunks per goroutine, claimed from an atomic
// counter — no per-item channel. Options.Workers (and the daemon's
// -max-workers) is only an upper bound. The grain is the measured
// crossover on a 2-vCPU box: a small workload (Fourier Q2 over NLTCS: 137
// noise rows, 120 marginals, 480 cells) is perturbed, recovered and
// projected serially, while identity's answer copy and recovery over 2^16
// cells, the large WHTs and big projections fork.
//
// # The blocked input and the dense answers
//
// Huge domains (d ≥ 20) make the 2^d contingency vector x the scaling
// bottleneck, so it travels as a vector.Blocked: contiguous cell-range
// blocks of one uniform length instead of one giant slice. The strategy
// answers z are one []float64 from measure to recovery.
//
//   - Input. x arrives from the dataset store in the form it holds —
//     the ingest accumulator's blocks handed over as-is, or, for a
//     dataset with at most one non-zero in vector.SparseRatio cells, its
//     sorted list of non-zeros (a dataset release never re-densifies) —
//     or as a zero-copy single-block view of a caller's dense slice.
//   - Measure. Each strategy's TrueAnswers computes S·x from the blocked
//     x and parallelises inside: identity copies cell ranges across
//     workers; workload (Q), cluster (C) and sparse Fourier split their
//     marginals into contiguous ranges across workers, each range one
//     marginal-kernel pass (marginal.Workload.EvalWorkersVector); dense
//     Fourier runs the blocked Walsh–Hadamard transform over a blocked
//     scratch copy. A sparse x costs O(non-zeros) here: the marginal
//     kernel reads its list and indexes each cell by the bit runs of each
//     marginal, and Fourier takes each coefficient from the workload
//     marginals instead of a 2^d transform (see the integrality invariant
//     below); identity materialises it dense, as its answers are 2^d long
//     anyway.
//   - Perturb. Noise is applied over the fixed noiseBlock row grid of z.
//   - Recover. Per-marginal recovery slices the rows of z it needs.
//   - Consist. Above the grain the weighted-L2 projection splits its
//     per-marginal small WHTs and the per-marginal reconstruction across
//     workers; the per-coefficient weighted average is one serial sweep
//     (consistency.L2WeightedWorkers).
//
// # Determinism contract
//
// A release is a pure function of (workload, data cells, Config). The
// worker count, the blocking of x, the plan cache, and goroutine
// scheduling never change a single bit of the output:
//
//   - Noise substreams. The noise added to row r of strategy group g is
//     drawn from a PRNG substream derived by hashing (master seed, g,
//     ⌊r/noiseBlock⌋) — see noise.NewSubstream. No draw depends on any
//     other group's stream, so groups (and fixed-size blocks within a
//     group) can be perturbed concurrently in any order, and the same seed
//     yields a bit-identical release at any worker count.
//   - Blocked answers. strategy.Plan.TrueAnswers must give the same bits
//     at every worker count and input blocking. Every built-in strategy
//     honours it by accumulating each output cell over ascending domain
//     indices — an order no blocking can change — and the blocked WHT
//     performs the exact serial butterfly sequence. The engine test suite
//     pins the full matrix: strategy × consistency mode × workers × input
//     blockings.
//   - Integrality. The sparse form holds positive integer counts whose
//     total is below 2^53 (vector.NewSparse checks it), so every sum of
//     them in any order, and every butterfly over such sums, is an exact
//     integer. Fourier's two routes therefore agree before their one
//     rounding step, the multiply by 1/√2^d: the 2^d transform of a dense
//     x and the 2^k transforms of a sparse x's exact marginals (Theorem
//     4.1) give the same coefficient bits. A dense vector carries no such
//     promise — it may hold fractions, negatives or −0 — so it keeps the
//     full transform.
//   - Per-marginal recovery. strategy.Plan.RecoverMarginal must be bitwise
//     equivalent to the corresponding block of Plan.Recover (same
//     floating-point additions in the same per-cell order). The engine
//     therefore recovers marginals concurrently whenever a plan provides
//     RecoverMarginal and the work clears the grain, and calls the serial
//     Recover otherwise.
//   - Consistency merges. Each Fourier coefficient accumulates its
//     contributions in ascending marginal order (within a marginal, in
//     ascending packed subset order) in one serial sweep along the
//     workload's Fourier column index, and the parallel phases write
//     disjoint per-marginal outputs, so the projection is bit-identical at
//     any worker count.
//   - Plan purity. Cached plans are shared read-only across goroutines and
//     runs; every built-in strategy's plan closures are pure functions of
//     their captured inputs.
//
// # Cache semantics
//
// PlanCache memoises Step-1 plans under a key covering everything a plan
// can depend on: strategy identity (Name, or PlanCacheKey for configurable
// strategies), domain dimension, the exact workload mask sequence and query
// weights. Privacy parameters and the budgeting mode stay out of the key —
// planning never sees them — so one cached plan serves a whole ε sweep.
// Step 1 is the only stage whose cost does not depend on the data — and for
// the cluster strategy it dominates the entire run — so repeated releases
// over the same schema (the serving scenario: fresh data or fresh seed,
// same cube) skip planning entirely.
// The cache is a bounded LRU and safe for concurrent use; hits return the
// identical plan the first run used, so caching never changes output.
//
// Each entry also keeps the workload its plan was built for. On a hit,
// RunVector recovers and projects against that workload rather than the
// caller's: the key holds the dimension and the ordered masks, so the two
// are equal, and the cached one already carries its derived Fourier
// support and column index (marginal.Workload.FourierColumns, 4 bytes per
// released cell). A caller that builds an equal workload per request —
// the /v1/cube lattice — therefore derives neither on a hit.
//
// Each cache entry also holds an answer memo: the exact strategy answers
// S·x its plan computed over one input vector.
//
//   - Key. The memo is keyed on (plan, frozen-input identity): the entry
//     fixes the plan, and a weak pointer fixes the input vector. Only
//     vectors frozen by their owner (vector.Freeze — the dataset store
//     freezes every snapshot it installs) are memoised; caller-owned
//     vectors always recompute. Privacy parameters and the seed stay out
//     of the key, as for plans: S·x never sees them, so a release over an
//     unchanged snapshot copies the memo into a fresh answer vector and
//     then perturbs, recovers and projects exactly as a recomputed one —
//     bit-identical output, fresh noise, the same charge. Plans with at
//     least as many rows as x has cells (identity) are not memoised.
//   - Invalidation by identity. Appending to or replacing a dataset
//     installs a new vector, whose releases simply miss. The weak key never
//     keeps a superseded snapshot alive, and each entry holds one memo, so
//     a stale one lasts only until its plan's next release or eviction.
//   - Fixed bound. The memos of one cache hold at most MaxAnswerMemoBytes;
//     storing past it evicts the memos of the least recently used plans.
//
// Timing exposure: a memo hit makes the measure stage faster, which
// reveals only that the same plan already ran over the same snapshot —
// query history, never data values. The server's result cache hit has the
// same exposure. Records and Install carry plans only, never memos.
package engine

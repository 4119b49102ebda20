// Package store is the dataset registry behind the upload-once /
// release-many serving shape: a sensitive relation is ingested once, as a
// stream, and any number of differentially private releases are answered
// from its aggregated contingency vector — the only representation the
// paper's mechanism ever consumes.
//
// # Streaming ingestion
//
// Ingestion reads newline-delimited JSON (NDJSON): the first line is a
// header object naming the schema, every following line is one tuple as a
// JSON array of attribute values:
//
//	{"schema":[{"name":"age-band","cardinality":8},{"name":"smoker","cardinality":2}]}
//	[0,1]
//	[3,0]
//	...
//
// Each line is scanned (without encoding/json: a byte scanner that accepts
// exactly the JSON arrays of integers), validated against the schema and
// folded into the contingency-count accumulator, then dropped — memory is
// bounded by the worker pool's in-flight batches plus the counts, never by
// the number of rows. Decoding and validation fan out over a worker pool;
// each worker pre-aggregates its batch locally (repeated tuples collapse
// early) and merges it into one map of distinct cells, switching once to
// dense counter shards with lock-free atomic adds when the distinct cells
// pass one in vector.SparseRatio of the 2^d domain. So ingest memory is
// O(min(distinct cells, 2^d)), and nothing of size 2^d is allocated before
// a row is read. Integer addition commutes exactly, so the ingested vector
// is bit-identical to dataset.Table.Vector over the same rows at any worker
// count.
//
// # Storage forms
//
// A dataset is held sparse — its non-zero cells, ascending, and their
// counts, 12 bytes each — when at most one cell in vector.SparseRatio (16,
// the marginal kernel's measured crossover) is non-zero and the values are
// positive integer counts totalling below 2^53; otherwise it is held as
// dense 2^16-cell shards. Ingest, PutCounts, append and snapshot load all
// pick the form this way (an append re-picks, so a growing dataset may
// cross to dense), and Info reports StoredCells and ResidentBytes. Adult
// (20,950 non-zeros in 2^23 cells) takes 251 KB sparse against 64 MiB
// dense; NLTCS (18% non-zero) stays dense. The form never changes a bit of
// a release, a fingerprint or a snapshot: the fingerprint absorbs each run
// of zero cells in one step (FNV-1a of a zero byte is a multiply by the
// prime), and the snapshot frame below still carries every cell.
//
// Ingestion is transactional: any malformed line, out-of-range value,
// oversized line or truncated trailing line rejects the whole stream and
// registers nothing — a partial dataset can never be released from.
//
// # Handles and deletion
//
// Store.Get returns a reference-counted Handle. Deleting (or replacing)
// a dataset removes it from the registry and from disk immediately, but
// in-flight handles keep the aggregated vector alive until closed, so a
// release racing a DELETE finishes against the data it admitted — it is
// never torn between versions.
//
// # Snapshot persistence
//
// With a directory configured, every ingested dataset is persisted as a
// versioned snapshot and reloaded on Open (straight into the form it is
// held in), so a restarted daemon answers
// releases for previously ingested datasets without re-upload. The format
// (one frame per file) is:
//
//	offset  size       field
//	0       8          magic "DPCBSNP1"
//	8       1          format version (1)
//	9       1          kind (1 = dataset, 2 = plan set)
//	10      4          metadata length M (uint32 LE)
//	14      M          metadata (JSON)
//	14+M    8          float count F (uint64 LE)
//	22+M    8·F        float64 payload (IEEE-754 bits, LE)
//	…       4          CRC-32 (IEEE) of every preceding byte
//
// Snapshots are written to a temporary file and renamed into place, so a
// crash mid-write never leaves a half-written snapshot under the final
// name (orphaned temp files are swept on the next Open). A CRC mismatch on
// load quarantines that snapshot — it is reported via
// QuarantinedSnapshots and never served — without taking the healthy
// datasets down with it.
//
// Privacy property: a dataset snapshot stores the schema and the
// aggregated contingency counts — never raw rows. The counts are exactly
// the statistic the mechanism perturbs; holding them at rest adds no
// disclosure surface beyond what the daemon already holds in memory, and
// row order, row identity and any attribute not in the schema are
// irreversibly gone. (The counts themselves are still sensitive — they are
// the *input* to the mechanism, not a private release — so the snapshot
// directory deserves the same protection as the raw data.)
//
// The same codec (kind 2) persists the plan cache's rebuildable plan
// records (see strategy.PlanRecord): a restarted daemon re-installs its
// warm cluster plans and skips the expensive clustering search on schemas
// it has served before. Plan snapshots contain strategy structure only —
// no data, no noise, no privacy parameters.
package store

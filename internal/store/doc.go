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
// One serial loop reads the stream through a 64 KiB buffer; a longer line
// is assembled in a buffer that grows with it up to the line limit. A row
// of the strict form [v,v,…] (no whitespace, sign or leading zero) is
// scanned straight into its cell index from the schema's bit layout. Any
// other line goes through a byte scanner that accepts exactly the JSON
// arrays of integers and then Schema.Encode's range checks, so what is
// accepted, and every error, is theirs. Row cells collect in a small
// buffer that is radix-sorted and merged into an ascending list of the
// distinct cells and their counts, which switches once to dense counter
// blocks when they pass one in vector.SparseRatio of the 2^d domain. So
// memory is one buffer plus O(min(distinct cells, 2^d)) counts, never the
// number of rows, and the vector is bit-identical to dataset.Table.Vector
// over the same rows. (A pool of decode workers was 2.3× slower on 2 vCPU.)
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
// a release or a fingerprint: the fingerprint defers zero bytes and
// absorbs each run of them in a multiply or two (FNV-1a of a zero byte is
// a multiply by the prime).
// The fingerprint walk also counts the non-zero cells, so an append onto a
// dense dataset knows the sum's count from the batch's cells alone and
// walks the domain for the form only when the sum may go sparse.
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
//	9       1          kind (1 = dataset, 2 = plan set, 3 = ledgers,
//	                   4 = sparse dataset)
//	10      4          metadata length M (uint32 LE)
//	14      M          metadata (JSON)
//	14+M    8          float count F (uint64 LE)
//	22+M    8·F        float64 payload (IEEE-754 bits, LE)
//	…       4          CRC-32 (IEEE) of every preceding byte
//
// A dataset held sparse is written as kind 4, whose F is the cell count
// and whose payload is its K non-zero cells in ascending order, 12·K
// bytes of (cell uint32 LE, count float64 bits LE) pairs. Adult's frame is
// about 250 KB instead of 64 MiB. Kind 1 frames, dense or written before
// kind 4 existed, still load, into whichever form their cells call for.
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

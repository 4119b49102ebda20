package repro

import (
	"context"
	"io"

	"repro/internal/store"
)

// The dataset store is the upload-once / release-many half of the service
// API: a sensitive relation is ingested once — streamed, validated and
// aggregated into its contingency vector — and any number of releases are
// answered from the stored aggregate without the rows ever being buffered
// or re-uploaded. See internal/store for the wire format, the snapshot
// persistence format and its no-raw-rows privacy property.
type (
	// DatasetStore is a concurrency-safe registry of ingested datasets,
	// optionally persisted to disk.
	DatasetStore = store.Store
	// DatasetHandle is a reference-counted view of one dataset; Close it
	// when the release using it finishes. Handles survive deletion of the
	// dataset, so in-flight releases always finish against the data they
	// admitted.
	DatasetHandle = store.Handle
	// DatasetInfo describes a resident dataset.
	DatasetInfo = store.Info
	// DatasetStoreConfig sizes a store (persistence directory, registry
	// bound).
	DatasetStoreConfig = store.Config
	// IngestOptions tunes streaming ingestion (the line budget); options
	// never change the ingested counts.
	IngestOptions = store.IngestOptions
)

// Dataset-store errors, tested with errors.Is.
var (
	// ErrDatasetNotFound reports a dataset id absent from the store.
	ErrDatasetNotFound = store.ErrNotFound
	// ErrInvalidDataset reports a rejected ingestion (bad id, malformed or
	// out-of-range row, oversized line, truncated stream). Nothing was
	// registered.
	ErrInvalidDataset = store.ErrInvalidDataset
	// ErrDatasetStoreFull reports a store at capacity with every resident
	// dataset pinned by in-flight releases.
	ErrDatasetStoreFull = store.ErrStoreFull
)

// OpenDatasetStore opens a dataset store. With a non-empty directory every
// ingested dataset is persisted as a snapshot (schema + aggregated counts,
// never raw rows) and reloaded on the next Open; an empty directory keeps
// the store memory-only.
func OpenDatasetStore(dir string) (*DatasetStore, error) {
	return store.Open(store.Config{Dir: dir})
}

// IngestDataset streams NDJSON into the store under id — a convenience
// wrapper over DatasetStore.IngestNDJSON with default options.
func IngestDataset(ctx context.Context, s *DatasetStore, id string, r io.Reader) (DatasetInfo, error) {
	return s.IngestNDJSON(ctx, id, r, IngestOptions{})
}

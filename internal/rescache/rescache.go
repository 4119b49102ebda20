// Package rescache is the release-result memo: an LRU over fully rendered
// response payloads with built-in single-flight, keyed on everything that
// determines a release's bytes — dataset identity AND version, workload,
// privacy parameters, seed, strategy, shard count, consistency toggles. A
// release is a deterministic function of that tuple (the engine's
// determinism contract), so replaying the cached payload is pure
// post-processing of an already-published DP output: it costs no privacy
// budget and is bit-identical to re-running the pipeline.
//
// Only dataset-backed requests are cacheable — inline-rows requests carry no
// version, and hashing their raw data would cost as much as answering them.
// Invalidation is by dataset id: the store's change hook drops every entry
// for an id on ingest/replace/append/delete, and the version in the key
// makes even a missed invalidation harmless (a new install always carries a
// new version, so a stale entry can never be served for fresh data).
//
// Cache.Do is the serving layer's one caching call, in the groupcache
// shape: a counted lookup, then a single-flight on the key — a cold key
// admits one leader while identical concurrent callers wait for its
// payload, so a thundering herd costs one execution and (the admission
// charge living inside the leader's fn) one ledger charge — then the
// leader's uncounted re-check, fn and Put. The re-check keeps the hit/miss
// counters describing real request traffic rather than flight bookkeeping.
package rescache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// DefaultSize is the entry bound used when the server config leaves the
// result cache size unset.
const DefaultSize = 256

// Cache is a concurrency-safe LRU from request key to response payload,
// with single-flight over the same keys (see Do).
type Cache struct {
	// Barrier, when non-nil, runs after a Do leader registers its flight
	// and before fn executes — a test seam that lets concurrency tests line
	// up followers against a known in-flight leader without sleeping. Set
	// it before the cache is shared.
	Barrier func(key string)

	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recent
	flights map[string]*flight
	hits    uint64
	misses  uint64
}

// flight is one in-flight Do execution. done is closed exactly once, after
// payload/err are set and the flight is unregistered, so any goroutine that
// observes done closed reads a complete result.
type flight struct {
	done    chan struct{}
	waiters int // followers currently waiting (see Waiting)
	payload []byte
	err     error
}

type entry struct {
	key     string
	dataset string
	payload []byte
}

// New builds a cache bounded to max entries (max <= 0 uses DefaultSize).
func New(max int) *Cache {
	if max <= 0 {
		max = DefaultSize
	}
	return &Cache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		flights: make(map[string]*flight),
	}
}

// Get returns the payload cached under key. The payload is shared — callers
// must treat it as read-only.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).payload, true
}

// Put stores payload under key, recording the dataset id the result was
// computed from so InvalidateDataset can find it. The caller must not
// modify payload afterwards.
func (c *Cache) Put(key, dataset string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).payload = payload
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, dataset: dataset, payload: payload})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
	}
}

// InvalidateDataset drops every entry computed from the dataset id. The scan
// is linear in the entry count, which the size bound keeps small — and it
// only runs on dataset mutations, which are rare next to releases.
func (c *Cache) InvalidateDataset(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).dataset == id {
			c.order.Remove(el)
			delete(c.entries, el.Value.(*entry).key)
		}
		el = next
	}
}

// Outcome reports how Do answered a call.
type Outcome int

const (
	// Bypass: a nil cache or an empty (uncacheable) key — fn ran directly,
	// outside any flight, and nothing was stored.
	Bypass Outcome = iota
	// Hit: the counted lookup found the payload; fn did not run.
	Hit
	// Led: this call led the key's flight — it found the payload on its
	// uncounted re-check or ran fn and stored the result.
	Led
	// Coalesced: this call joined another call's flight and shares its
	// payload or error (or detached when its own ctx died while waiting).
	Coalesced
)

// Do returns the payload for key, computing it with fn at most once across
// concurrent callers. It does a counted lookup first; on a miss the first
// caller in (the leader) runs fn under a single-flight on key while every
// later caller with the same key (a follower) waits for the leader's
// result instead of executing. The leader re-checks the cache without
// counting (a previous flight may have stored the payload between this
// caller's miss and its registration), then runs fn and Puts a successful
// payload under dataset before the flight ends, so a caller arriving after
// it always hits. A nil cache or an empty key runs fn directly (Bypass).
//
// onWait, when non-nil, is invoked each time this caller joins an existing
// flight — the hook the serving layer uses to open a coalesced-wait span.
// Cancellation is per waiter: a follower whose own ctx dies detaches with
// ctx.Err() while the leader keeps running for the others, and a follower
// handed a leader's cancellation (the leader's client disconnected mid-run)
// retries — becoming or following a fresh leader — rather than failing a
// live request with someone else's cancellation. fn runs under the
// leader's own context, which it captures itself.
func (c *Cache) Do(ctx context.Context, key, dataset string, fn func() ([]byte, error), onWait func()) ([]byte, Outcome, error) {
	if c == nil || key == "" {
		payload, err := fn()
		return payload, Bypass, err
	}
	if payload, ok := c.Get(key); ok {
		return payload, Hit, nil
	}
	for {
		c.mu.Lock()
		if f, ok := c.flights[key]; ok {
			f.waiters++
			c.mu.Unlock()
			if onWait != nil {
				onWait()
			}
			select {
			case <-f.done:
				// No waiter bookkeeping here: the flight is already
				// unregistered, so its count is garbage with it.
				if f.err != nil && isCancellation(f.err) && ctx.Err() == nil {
					continue
				}
				return f.payload, Coalesced, f.err
			case <-ctx.Done():
				// Detach without disturbing the leader; the stale waiter
				// count goes when the flight completes (the flight object
				// is dropped wholesale).
				return nil, Coalesced, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		if c.Barrier != nil {
			c.Barrier(key)
		}
		payload, err := c.lead(key, dataset, fn)
		// Unregister BEFORE publishing: once done is closed a new caller
		// must start a fresh flight, never join a finished one.
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		f.payload, f.err = payload, err
		close(f.done)
		return payload, Led, err
	}
}

// lead is a flight leader's share of Do: the uncounted re-check (which
// leaves the LRU order alone too), then fn, then Put on success.
func (c *Cache) lead(key, dataset string, fn func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	el, ok := c.entries[key]
	var payload []byte
	if ok {
		payload = el.Value.(*entry).payload
	}
	c.mu.Unlock()
	if ok {
		return payload, nil
	}
	payload, err := fn()
	if err != nil {
		return nil, err
	}
	c.Put(key, dataset, payload)
	return payload, nil
}

// Waiting reports how many followers are parked on key's flight (0 when no
// flight is registered) — the herd-assembly probe of concurrency tests.
func (c *Cache) Waiting(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f.waiters
	}
	return 0
}

// isCancellation reports whether err is (or wraps) a context cancellation —
// the class of leader failures a live follower retries past instead of
// inheriting.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats is the snapshot served by /v1/metrics.
type Stats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len()}
}

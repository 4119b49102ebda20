package engine

import (
	"container/list"
	"math"
	"strconv"
	"strings"
	"sync"
	"weak"

	"repro/internal/marginal"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// PlanCache memoises Step-1 strategy plans across releases. The key covers
// everything a plan can depend on — domain dimension, workload masks,
// strategy identity and query weights — so a hit is always safe to reuse
// (privacy and budgeting never reach planning and are deliberately not in
// the key, letting one plan serve a whole ε sweep). Cached plans are shared read-only: every built-in
// strategy's Plan closures are pure functions of their captured inputs,
// which is what makes concurrent reuse sound.
//
// This is the serving-scenario amortisation: repeated releases over the same
// schema (fresh seed or fresh data each time) skip planning entirely —
// decisive for the cluster strategy, whose greedy search costs orders of
// magnitude more than measurement (Figure 6).
//
// Each entry also holds one answer memo: the exact strategy answers S·x of
// its plan over the last frozen input vector it measured (vector.Freeze),
// keyed by a weak pointer to that vector. S·x depends on neither ε nor the
// seed, so a release over an unchanged dataset snapshot copies the memo
// and only draws noise. The weak key never pins a superseded snapshot, and
// a new snapshot is a new vector, so an append or replace simply misses.
// The memos of one cache hold at most MaxAnswerMemoBytes together.
type PlanCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	hits    uint64
	misses  uint64

	memoMax      int // MaxAnswerMemoBytes; lowered only by tests
	memoBytes    int // Σ 8·len(answers) over resident memos
	answerHits   uint64
	answerMisses uint64
}

type cacheEntry struct {
	key  string
	plan *strategy.Plan
	memo *answerMemo // nil until a frozen input is measured with plan
	gone bool        // evicted or replaced: memoize drops its answers
}

// answerMemo is one plan's exact answers S·x over one frozen input. Both
// fields are immutable once published.
type answerMemo struct {
	x       weak.Pointer[vector.Blocked]
	answers []float64
}

// MaxAnswerMemoBytes bounds the exact-answer memos of one PlanCache
// together: 64 MiB of float64. A memo that would pass it evicts the memos
// of the least recently used plans; a single plan whose answers alone pass
// it is never memoised.
const MaxAnswerMemoBytes = 64 << 20

// DefaultPlanCacheSize bounds a cache built with NewPlanCache(0).
const DefaultPlanCacheSize = 128

// NewPlanCache returns an LRU plan cache holding up to maxEntries plans
// (0 means DefaultPlanCacheSize).
func NewPlanCache(maxEntries int) *PlanCache {
	if maxEntries <= 0 {
		maxEntries = DefaultPlanCacheSize
	}
	return &PlanCache{
		max:     maxEntries,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		memoMax: MaxAnswerMemoBytes,
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
	// AnswerHits and AnswerMisses count answer-memo lookups: releases over
	// a frozen input whose plan is memoisable (see PlanCache).
	AnswerHits, AnswerMisses uint64
}

// Stats returns the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries),
		AnswerHits: c.answerHits, AnswerMisses: c.answerMisses}
}

func (c *PlanCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

func (c *PlanCache) put(key string, plan *strategy.Plan) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &cacheEntry{key: key, plan: plan}
	if el, ok := c.entries[key]; ok {
		// A fresh entry, not a new plan in the old one: a release still
		// holding the old entry must not memoise its plan's answers here.
		c.retireLocked(el.Value.(*cacheEntry))
		el.Value = e
		c.order.MoveToFront(el)
		return e
	}
	c.entries[key] = c.order.PushFront(e)
	for len(c.entries) > c.max {
		oldest := c.order.Remove(c.order.Back()).(*cacheEntry)
		c.retireLocked(oldest)
		delete(c.entries, oldest.key)
	}
	return e
}

// retireLocked detaches an entry leaving the cache, freeing its memo.
func (c *PlanCache) retireLocked(e *cacheEntry) {
	c.dropMemoLocked(e)
	e.gone = true
}

func (c *PlanCache) dropMemoLocked(e *cacheEntry) {
	if e.memo != nil {
		c.memoBytes -= 8 * len(e.memo.answers)
		e.memo = nil
	}
}

// answers returns e's memoised S·x when it was taken over x, or nil. The
// slice is shared: callers copy it before writing.
func (c *PlanCache) answers(e *cacheEntry, x *vector.Blocked) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := e.memo; m != nil && m.x.Value() == x {
		c.answerHits++
		return m.answers
	}
	c.answerMisses++
	return nil
}

// memoize installs a copy of answers as e's memo over x, evicting least
// recently used memos to stay within MaxAnswerMemoBytes. An entry already
// evicted or replaced keeps nothing.
func (c *PlanCache) memoize(e *cacheEntry, x *vector.Blocked, answers []float64) {
	size := 8 * len(answers)
	if size > c.memoMax {
		return
	}
	answers = append([]float64(nil), answers...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.gone {
		return
	}
	c.dropMemoLocked(e)
	for el := c.order.Back(); el != nil && c.memoBytes+size > c.memoMax; el = el.Prev() {
		c.dropMemoLocked(el.Value.(*cacheEntry))
	}
	e.memo = &answerMemo{x: weak.Make(x), answers: answers}
	c.memoBytes += size
}

// Records returns the serializable residue of every cached plan that
// carries one (currently: cluster plans — see strategy.PlanRecord), in LRU
// order from most to least recently used. The records round-trip through
// Install, which is how internal/store persists warm plans across process
// restarts.
func (c *PlanCache) Records() []*strategy.PlanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*strategy.PlanRecord
	for el := c.order.Front(); el != nil; el = el.Next() {
		if rec := el.Value.(*cacheEntry).plan.Persist; rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// Install rebuilds each record's plan (strategy.RebuildPlan — no search) and
// inserts it under the exact key the live planner would compute, so the next
// release over that workload is a cache hit. Returns how many records were
// installed; a record that fails to rebuild is skipped (a stale or corrupt
// snapshot must not take the cache down) and reported in the error, with
// the remaining records still installed.
func (c *PlanCache) Install(recs []*strategy.PlanRecord) (int, error) {
	var firstErr error
	n := 0
	for _, rec := range recs {
		plan, w, err := strategy.RebuildPlan(rec)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		key := planKey(w, Config{
			Strategy:     strategy.Cluster{MaxMerges: rec.MaxMerges},
			QueryWeights: rec.Weights,
		})
		c.put(key, plan)
		n++
	}
	return n, firstErr
}

// planKey serialises the plan-relevant parts of a run: strategy identity,
// domain dimension, the exact workload mask sequence and query weights.
// Privacy parameters and the budgeting mode deliberately stay out of the
// key — planning never sees them (Strategy.Plan takes only the workload, and
// PlanWeighted only the weights), so keying on them would re-run the
// expensive Step-1 search once per ε of a sweep for no gain.
func planKey(w *marginal.Workload, cfg Config) string {
	var b strings.Builder
	if k, ok := cfg.Strategy.(strategy.PlanKeyer); ok {
		b.WriteString(k.PlanCacheKey())
	} else {
		b.WriteString(cfg.Strategy.Name())
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(w.D))
	b.WriteByte('|')
	for _, m := range w.Marginals {
		b.WriteString(strconv.FormatUint(uint64(m.Alpha), 16))
		b.WriteByte(',')
	}
	if cfg.QueryWeights != nil {
		b.WriteByte('|')
		for _, v := range cfg.QueryWeights {
			b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
			b.WriteByte(',')
		}
	}
	return b.String()
}

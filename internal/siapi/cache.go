package siapi

// Query result caching. The EIL workload is read-heavy and repetitive —
// form queries over a slow-changing corpus — so the engine memoizes Search
// and Count results in small LRUs keyed on a canonical encoding of the
// query plus the index's generation counter. Any index write bumps the
// counter, so the first query after a write sees a flushed cache; writers
// never touch the cache at all. A score reads N, df and the average field
// length, which every add changes; snippets do not and outlive writes.

import (
	"strconv"
	"strings"

	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/obs"
)

const (
	// searchCacheSize bounds the hit-list cache; entries are full result
	// pages (tens of DocHits), so keep it modest.
	searchCacheSize = 512
	// countCacheSize bounds the match-count cache; entries are a single int.
	countCacheSize = 1024
	// snippetCacheSize bounds the per-(document, terms) snippet cache.
	// Entries are one short string, but generating one re-tokenizes the
	// whole document body, so a repeated query's presented page comes back
	// for a few map lookups instead of ~a hundred tokenization passes.
	snippetCacheSize = 8192
)

// SetMetrics routes cache hit/miss counters into reg (nil disables; the
// handles are nil-safe).
func (e *Engine) SetMetrics(reg *obs.Registry) {
	e.cacheHits = reg.Counter("search_cache_hits_total")
	e.cacheMisses = reg.Counter("search_cache_misses_total")
}

// cacheKey encodes a query and limit injectively: every component is
// length-prefixed, so distinct queries can never collide by concatenation.
func cacheKey(q Query, limit int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(limit))
	writeList := func(tag byte, vals []string) {
		b.WriteByte(tag)
		b.WriteString(strconv.Itoa(len(vals)))
		for _, v := range vals {
			b.WriteByte(':')
			b.WriteString(strconv.Itoa(len(v)))
			b.WriteByte(':')
			b.WriteString(v)
		}
	}
	writeList('a', q.All)
	writeList('x', []string{q.Exact})
	writeList('y', q.Any)
	writeList('n', q.None)
	writeList('z', q.Fuzzy)
	writeList('p', q.Prefix)
	writeList('f', q.Fields)
	writeList('d', q.Deals)
	return b.String()
}

// countLimit is the limit count-cache keys are encoded with: counts ignore
// limit, and no Search uses this one.
const countLimit = -1

// cachedSearchKey consults the result LRU for key — the canonical query
// encoding, to which the sharded path appends a cluster-stats epoch — before
// running compute, and stores what compute returns; the second result
// reports whether the cache served the hit list (trace spans record it).
// compute receives the index generation the result will be stored under, so
// what else it learns can be cached under the same one. Hit lists are copied
// on both sides of the cache boundary so callers may mutate what they
// receive.
func (e *Engine) cachedSearchKey(key string, compute func(epoch uint64) []DocHit) ([]DocHit, bool) {
	epoch := e.ix.Generation()
	if e.hitCache == nil {
		return compute(epoch), false
	}
	if hits, ok := e.hitCache.Get(key, epoch); ok {
		e.cacheHits.Inc()
		return cloneHits(hits), true
	}
	e.cacheMisses.Inc()
	out := compute(epoch)
	e.hitCache.Put(key, epoch, cloneHits(out))
	return out, false
}

// cachedCount is cachedSearchKey for match counts.
func (e *Engine) cachedCount(q Query, compute func() int) (int, bool) {
	if e.countCache == nil {
		return compute(), false
	}
	key := cacheKey(q, countLimit)
	epoch := e.ix.Generation()
	if n, ok := e.countCache.Get(key, epoch); ok {
		e.cacheHits.Inc()
		return n, true
	}
	e.cacheMisses.Inc()
	n := compute()
	e.countCache.Put(key, epoch, n)
	return n, false
}

// cloneHits shallow-copies a hit list. DocHit fields are value types
// (strings are immutable), so a slice copy fully isolates caller and cache.
func cloneHits(hits []DocHit) []DocHit {
	if hits == nil {
		return nil
	}
	out := make([]DocHit, len(hits))
	copy(out, hits)
	return out
}

// snippet returns the highlighted extract for doc against terms, memoized
// per (document, terms) for the engine's lifetime: a document's stored text
// never changes (Add rejects a live ExtID, DocIDs are not reused, Compact
// builds a new Engine). Strings are immutable, so the value is shared.
func (e *Engine) snippet(doc index.DocID, terms []string) string {
	if e.snipCache == nil {
		return e.ix.Snippet(doc, FieldBody, terms, snippetWidth)
	}
	var b strings.Builder
	b.WriteString(strconv.FormatUint(uint64(doc), 10))
	for _, t := range terms {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(len(t)))
		b.WriteByte(':')
		b.WriteString(t)
	}
	key := b.String()
	if s, ok := e.snipCache.Get(key); ok {
		return s
	}
	s := e.ix.Snippet(doc, FieldBody, terms, snippetWidth)
	e.snipCache.Put(key, s)
	return s
}

func newHitCache() *lru.Versioned[string, []DocHit] {
	return lru.NewVersioned[string, []DocHit](searchCacheSize)
}

func newSnippetCache() *lru.Cache[string, string] {
	return lru.New[string, string](snippetCacheSize)
}

func newCountCache() *lru.Versioned[string, int] {
	return lru.NewVersioned[string, int](countCacheSize)
}

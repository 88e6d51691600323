// Package lru provides a small LRU cache for query results in two types,
// chosen per cache by what its entries depend on. An entry that is a function
// of one known thing (a deal's synopsis, a memoized synopsis query, an
// immutable document's snippet) lives in a Cache, and the writer removes
// exactly what it changed with Remove or RemoveFunc; the rest stays warm. An
// entry that depends on the whole collection (a BM25 score reads N, df and
// average field length, which every add changes) lives in a Versioned cache
// under an external generation counter: the first access at a newer epoch
// flushes it, so the writer only bumps a counter, at the cost of a cold cache
// after every write. A Cache has no epoch to pass, so it cannot flush itself.
package lru

import "sync"

// Cache is a fixed-capacity LRU keyed by K, safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	items map[K]*entry[K, V]
	// Doubly-linked use list; head is most recent, tail least.
	head, tail *entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns a cache holding at most capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{cap: capacity, items: make(map[K]*entry[K, V], capacity)}
}

// Get returns the value cached for key.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(key)
}

// Put stores key→val, evicting the least recently used entry when full.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, val)
}

func (c *Cache[K, V]) get(key K) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

func (c *Cache[K, V]) put(key K, val V) {
	if e, ok := c.items[key]; ok {
		e.val = val
		c.moveToFront(e)
		return
	}
	e := &entry[K, V]{key: key, val: val}
	c.items[key] = e
	c.pushFront(e)
	if len(c.items) > c.cap {
		c.evict(c.tail)
	}
}

// Versioned is a Cache whose every entry was computed at one epoch of an
// external generation counter; it shares the Cache's lock and use list.
type Versioned[K comparable, V any] struct {
	c     *Cache[K, V]
	epoch uint64
}

// NewVersioned returns a versioned cache holding at most capacity entries.
func NewVersioned[K comparable, V any](capacity int) *Versioned[K, V] {
	return &Versioned[K, V]{c: New[K, V](capacity)}
}

// Get returns the value cached for key, if it was stored at the given
// epoch. A newer epoch flushes the cache (every entry is stale) and
// misses; an older epoch — a reader that observed the counter before a
// concurrent writer bumped it — misses without disturbing newer entries.
func (v *Versioned[K, V]) Get(key K, epoch uint64) (V, bool) {
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	if epoch != v.epoch {
		if epoch > v.epoch {
			v.flush(epoch)
		}
		var zero V
		return zero, false
	}
	return v.c.get(key)
}

// Put stores key→val computed at the given epoch. Values from epochs older
// than the cache's are dropped (they may already be stale); a newer epoch
// flushes first.
func (v *Versioned[K, V]) Put(key K, epoch uint64, val V) {
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	if epoch != v.epoch {
		if epoch < v.epoch {
			return
		}
		v.flush(epoch)
	}
	v.c.put(key, val)
}

// Len reports the number of cached entries.
func (v *Versioned[K, V]) Len() int { return v.c.Len() }

func (v *Versioned[K, V]) flush(epoch uint64) {
	v.epoch = epoch
	clear(v.c.items)
	v.c.head, v.c.tail = nil, nil
}

// Remove drops key and reports whether it was cached.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if ok {
		c.evict(e)
	}
	return ok
}

// RemoveFunc drops every entry drop reports true for and returns how many
// went. drop runs under the cache lock and must not call back into c.
func (c *Cache[K, V]) RemoveFunc(drop func(K, V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.head; e != nil; {
		next := e.next
		if drop(e.key, e.val) {
			c.evict(e)
			n++
		}
		e = next
	}
	return n
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache[K, V]) evict(e *entry[K, V]) {
	if e == nil {
		return
	}
	c.unlink(e)
	delete(c.items, e.key)
}

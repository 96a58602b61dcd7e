package service

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// Cache is the content-addressed result cache: marshaled Report bytes keyed
// by the cache key of (instance hash, partitioning config, seed). Reports
// are deterministic, so an entry never goes stale — eviction exists only to
// bound memory, LRU over both an entry count and a total byte budget.
//
// Hit/miss accounting is the service's singleflight evidence: N concurrent
// identical requests must record exactly one miss (the flight leader) with
// the followers counted as coalesced, and later identical requests as hits.
//
// The cache also memoizes request bodies for the serve-hit front end
// (DESIGN.md §10): each entry remembers the sha256 of the last raw request
// body whose full front end derived its key, so a repeat of that body finds
// its key without decoding, parsing or hashing the instance again. A body
// digest lives and dies with its entry, so the memo never holds more digests
// than the cache holds entries.
type Cache struct {
	mu         sync.Mutex
	maxEntries int   // immutable after NewCache
	maxBytes   int64 // immutable after NewCache
	bytes      int64 //hglint:guardedby mu
	// ll orders entries front = most recently used.
	ll    *list.List               //hglint:guardedby mu
	items map[string]*list.Element //hglint:guardedby mu
	// bodies maps a remembered request-body digest to its entry.
	bodies map[[sha256.Size]byte]*list.Element //hglint:guardedby mu

	hits, misses, coalesced, evictions int64 //hglint:guardedby mu
}

type cacheEntry struct {
	key  string
	body []byte
	// reqSum is the remembered request-body digest, when hasReq.
	reqSum [sha256.Size]byte
	hasReq bool
}

// NewCache builds a cache bounded to maxEntries entries and maxBytes total
// body bytes (either <= 0 disables that bound; both <= 0 means unbounded).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		bodies:     make(map[[sha256.Size]byte]*list.Element),
	}
}

// Get returns the cached report bytes for key, updating recency and the
// hit counter. The returned slice is shared — callers must not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Peek returns the cached bytes for key without touching the hit counter or
// recency order. Sibling workers use it to serve peer cache lookups, so a
// peer's probes never skew this node's own hit-rate accounting.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).body, true
}

// keyForBody returns the cache key a request body with sha256 sum resolved
// to, if the body is remembered and its report still cached. It counts
// nothing and leaves recency alone: the caller's Get does both.
func (c *Cache) keyForBody(sum [sha256.Size]byte) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bodies[sum]
	if !ok {
		return "", false
	}
	return el.Value.(*cacheEntry).key, true
}

// rememberBody records that a request body with sha256 sum derives key. It
// is a no-op unless key is cached, and the entry forgets the body it
// remembered before, so a flood of distinct bodies sharing one key holds
// one digest.
func (c *Cache) rememberBody(sum [sha256.Size]byte, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	if ent.hasReq {
		delete(c.bodies, ent.reqSum)
	}
	ent.reqSum, ent.hasReq = sum, true
	c.bodies[sum] = el
}

// Miss records one cache miss (called by the flight leader exactly once per
// computed report).
func (c *Cache) Miss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// Coalesced records one coalesced request (a follower that piggybacked on an
// in-flight identical computation — neither hit nor miss).
func (c *Cache) Coalesced() {
	c.mu.Lock()
	c.coalesced++
	c.mu.Unlock()
}

// Put stores body under key and evicts LRU entries beyond the bounds. A body
// alone larger than the byte budget is simply not cached.
func (c *Cache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && int64(len(body)) > c.maxBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(ent.body))
		ent.body = body
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
		c.bytes += int64(len(body))
	}
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		if ent.hasReq {
			delete(c.bodies, ent.reqSum)
		}
		c.bytes -= int64(len(ent.body))
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot for /metrics.
type CacheStats struct {
	Entries   int
	Bytes     int64
	Hits      int64
	Misses    int64
	Coalesced int64
	Evictions int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
	}
}

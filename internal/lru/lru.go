// Package lru implements the goroutine-safe byte-slice LRU cache shared
// by this repository's read paths: the blockstore's decompressed-block
// cache and the serving layer's hot-document cache (internal/serve) are
// both instances of it.
//
// The cache owns its bytes. Put copies the value into cache-owned
// storage, so later mutation of the caller's slice cannot corrupt cached
// entries; Get returns a full slice expression (len == cap) over that
// storage, so a caller that appends to a hit forces a reallocation
// instead of scribbling over the cache. Callers must still treat the
// returned bytes as read-only — indexed writes are not (and cannot be)
// intercepted.
package lru

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a fixed-capacity least-recently-used map from uint64 keys to
// immutable byte strings. All methods are safe for concurrent use. The
// zero value is not usable; call New.
type Cache struct {
	hits   atomic.Int64
	misses atomic.Int64

	mu       sync.Mutex
	capacity int                      // immutable after New; read lock-free by Capacity
	order    *list.List               // guarded by mu; front = most recent; values are *entry
	entries  map[uint64]*list.Element // guarded by mu
}

type entry struct {
	key  uint64
	data []byte
}

// New returns an empty cache holding at most capacity entries.
// A capacity below 1 is treated as 1.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[uint64]*list.Element, capacity),
	}
}

// Get returns the cached bytes for key, or nil on a miss. The returned
// slice is cache-owned and read-only; its capacity is clamped to its
// length so appending reallocates rather than mutating the cache.
func (c *Cache) Get(key uint64) []byte {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	c.order.MoveToFront(el)
	data := el.Value.(*entry).data
	c.mu.Unlock()
	c.hits.Add(1)
	return data[:len(data):len(data)]
}

// Put stores a copy of data under key, evicting the least recently used
// entries while over capacity. The caller keeps ownership of data and may
// mutate it freely afterwards.
func (c *Cache) Put(key uint64, data []byte) {
	owned := make([]byte, len(data))
	copy(owned, data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*entry).data = owned
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, data: owned})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
	}
}

// Remove drops the entry for key, reporting whether one was cached. The
// serving layer uses it to invalidate a single document (e.g. after a
// delete) without discarding the rest of a hot cache.
func (c *Cache) Remove(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.entries, key)
	return true
}

// Purge drops every entry. The serving layer calls it when its cache
// epoch space wraps, so no key from an ancient epoch can alias a
// current one.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.entries)
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Capacity reports the maximum number of entries the cache holds.
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

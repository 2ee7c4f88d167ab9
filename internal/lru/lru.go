// Package lru implements the goroutine-safe document cache of the
// serving layer (internal/serve); the benchmark also times it alone.
//
// The eviction policy is SIEVE (Zhang et al., "SIEVE is Simpler than
// LRU", NSDI 2024): entries sit in one FIFO queue with a visited bit
// each. A hit only sets the bit; it never moves the entry. To make room
// a hand walks from the oldest entry toward the newest, clearing set
// bits, and evicts the first entry whose bit was clear. On a skewed
// read stream this keeps more of the popular documents than LRU does,
// and a hit does no queue surgery. The policy has no parameter.
//
// The table holds a fixed number of slots, allocated by New, and the
// entry that evicts a slot copies its bytes into that slot's buffer
// when the buffer fits (see Put), so a warm cache allocates nothing per
// miss. Because buffers are reused, no slice of cache storage ever
// leaves the lock: GetAppend appends the cached bytes to the caller's
// buffer and Get returns a caller-owned copy, both under a read lock,
// and Put copies the caller's bytes in, so neither side aliases the
// other.
package lru

import (
	"sync"
	"sync/atomic"
)

// Cache is a fixed-capacity map from uint64 keys to byte strings with
// SIEVE eviction. All methods are safe for concurrent use. The zero
// value is not usable; call New.
type Cache struct {
	hits   atomic.Int64
	misses atomic.Int64

	mu       sync.RWMutex
	capacity int              // immutable after New; read lock-free by Capacity
	index    map[uint64]int32 // guarded by mu; key -> slot
	slots    []slot           // guarded by mu, except each slot's visited bit
	head     int32            // guarded by mu; newest slot in the queue, or -1
	tail     int32            // guarded by mu; oldest slot in the queue, or -1
	hand     int32            // guarded by mu; next eviction candidate, or -1 for the tail
	free     int32            // guarded by mu; unused slots, linked through older, or -1
}

// slot is one table entry. A slot in the queue is linked to its newer
// and older neighbours by index; -1 ends the list.
type slot struct {
	// visited is set by a hit under the read lock and cleared by the
	// hand under the write lock.
	visited      atomic.Bool
	key          uint64
	data         []byte
	newer, older int32
}

// reuseSlack is the spare capacity, beyond twice the document's own
// length, that a recycled buffer may keep (see Put).
const reuseSlack = 4 << 10

// New returns an empty cache holding at most capacity entries.
// A capacity below 1 is treated as 1.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		capacity: capacity,
		index:    make(map[uint64]int32, capacity),
		slots:    make([]slot, capacity),
	}
	c.reset()
	return c
}

// reset empties the queue, drops every buffer and puts every slot on
// the free list. The caller holds mu or owns c alone.
func (c *Cache) reset() {
	c.head, c.tail, c.hand = -1, -1, -1
	for i := range c.slots {
		s := &c.slots[i]
		s.visited.Store(false)
		s.key, s.data, s.newer = 0, nil, -1
		s.older = int32(i) + 1
	}
	c.slots[len(c.slots)-1].older = -1
	c.free = 0
}

// GetAppend appends the cached bytes for key to dst and reports whether
// key was cached; on a miss dst is returned unchanged.
func (c *Cache) GetAppend(dst []byte, key uint64) ([]byte, bool) {
	c.mu.RLock()
	s := c.visit(key)
	if s != nil {
		dst = append(dst, s.data...)
	}
	c.mu.RUnlock()
	return dst, s != nil
}

// Get returns a copy of the cached bytes for key, or nil on a miss. The
// copy is the caller's, with its capacity equal to its length.
func (c *Cache) Get(key uint64) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.visit(key)
	if s == nil {
		return nil
	}
	out := make([]byte, len(s.data))
	copy(out, s.data)
	return out
}

// visit counts a lookup of key and returns its slot, visited, or nil on
// a miss. Called with mu held, for reading at least.
func (c *Cache) visit(key uint64) *slot {
	i, ok := c.index[key]
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	s := &c.slots[i]
	if !s.visited.Load() {
		s.visited.Store(true)
	}
	return s
}

// Put stores a copy of data under key. A new key goes in at the head of
// the queue, into a free slot or else into the slot the hand evicts; an
// existing key keeps its slot and counts as visited. The bytes are
// copied into the slot's buffer when its capacity lies between
// len(data) and 2*len(data) + 4 KiB, and otherwise into a fresh buffer
// of len(data) bytes (rounded up to the allocator's size class), so
// every buffer holds at most twice its entry plus 4 KiB. The caller
// keeps ownership of data.
func (c *Cache) Put(key uint64, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if ok {
		c.slots[i].visited.Store(true)
	} else {
		if i = c.free; i >= 0 {
			c.free = c.slots[i].older
		} else {
			i = c.evict()
		}
		c.index[key] = i
		c.slots[i].key = key
		c.pushHead(i)
	}
	s := &c.slots[i]
	if n := len(data); n <= cap(s.data) && cap(s.data) <= 2*n+reuseSlack {
		s.data = append(s.data[:0], data...)
	} else {
		s.data = append([]byte(nil), data...)
	}
}

// evict runs the hand to the first unvisited slot from its position
// toward the head, clearing visited bits on the way and wrapping from the
// head to the tail, then unlinks that slot and returns it. The hand
// rests on the victim's newer neighbour. The queue is full.
func (c *Cache) evict() int32 {
	i := c.hand
	if i < 0 {
		i = c.tail
	}
	for c.slots[i].visited.Load() {
		c.slots[i].visited.Store(false)
		if i = c.slots[i].newer; i < 0 {
			i = c.tail
		}
	}
	delete(c.index, c.slots[i].key)
	c.hand = i
	c.unlink(i)
	return i
}

// pushHead links slot i in as the newest entry, unvisited.
func (c *Cache) pushHead(i int32) {
	s := &c.slots[i]
	s.visited.Store(false)
	s.newer, s.older = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].newer = i
	} else {
		c.tail = i
	}
	c.head = i
}

// unlink takes slot i out of the queue. A hand resting on i moves to
// i's newer neighbour, wrapping to the tail.
func (c *Cache) unlink(i int32) {
	s := &c.slots[i]
	if c.hand == i {
		c.hand = s.newer
	}
	if s.newer >= 0 {
		c.slots[s.newer].older = s.older
	} else {
		c.head = s.older
	}
	if s.older >= 0 {
		c.slots[s.older].newer = s.newer
	} else {
		c.tail = s.newer
	}
	s.newer, s.older = -1, -1
}

// Remove drops the entry for key, reporting whether one was cached. Its
// slot goes back to the free list without its buffer.
func (c *Cache) Remove(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		return false
	}
	delete(c.index, key)
	c.unlink(i)
	s := &c.slots[i]
	s.data = nil
	s.older, c.free = c.free, i
	return true
}

// Purge drops every entry and buffer. The serving layer calls it when
// its cache epoch space wraps, so no key from an ancient epoch can alias
// a current one.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.index)
	c.reset()
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.index)
}

// Capacity reports the maximum number of entries the cache holds.
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

package lru

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rlz/internal/workload"
)

// refSieve is SIEVE at its plainest: a slice ordered oldest first, a
// visited flag per entry and a hand index, every operation O(n).
type refSieve struct {
	capacity int
	keys     []uint64
	vals     [][]byte
	visited  []bool
	hand     int
}

func (r *refSieve) find(key uint64) int { return slices.Index(r.keys, key) }

func (r *refSieve) get(key uint64) ([]byte, bool) {
	i := r.find(key)
	if i < 0 {
		return nil, false
	}
	r.visited[i] = true
	return r.vals[i], true
}

func (r *refSieve) put(key uint64, v []byte) {
	v = bytes.Clone(v)
	if i := r.find(key); i >= 0 {
		r.vals[i], r.visited[i] = v, true
		return
	}
	if len(r.keys) == r.capacity {
		i := r.hand
		for r.visited[i] {
			r.visited[i] = false
			i = (i + 1) % len(r.keys)
		}
		r.hand = i
		r.removeAt(i)
	}
	r.keys, r.vals, r.visited = append(r.keys, key), append(r.vals, v), append(r.visited, false)
}

func (r *refSieve) remove(key uint64) bool {
	i := r.find(key)
	if i >= 0 {
		r.removeAt(i)
	}
	return i >= 0
}

// removeAt drops entry i; a hand on it moves to its newer neighbour,
// wrapping to the oldest.
func (r *refSieve) removeAt(i int) {
	r.keys, r.vals, r.visited = slices.Delete(r.keys, i, i+1), slices.Delete(r.vals, i, i+1), slices.Delete(r.visited, i, i+1)
	if r.hand > i {
		r.hand--
	}
	if r.hand >= len(r.keys) {
		r.hand = 0
	}
}

func (r *refSieve) purge() {
	r.keys, r.vals, r.visited, r.hand = nil, nil, nil, 0
}

// queue lists c's keys oldest first and checks each buffer's bound.
func (c *Cache) queue(t *testing.T) []uint64 {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	var keys []uint64
	for i := c.tail; i >= 0; i = c.slots[i].newer {
		s := &c.slots[i]
		if n := len(s.data); cap(s.data) > 2*n+reuseSlack {
			t.Fatalf("key %d: buffer cap %d above 2*%d + %d", s.key, cap(s.data), n, reuseSlack)
		}
		keys = append(keys, s.key)
	}
	if len(keys) != len(c.index) {
		t.Fatalf("queue holds %d slots, index %d keys", len(keys), len(c.index))
	}
	return keys
}

// pattern is what docBytes cuts documents from.
var pattern = func() []byte {
	b := make([]byte, 64<<10+256)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}()

// docBytes is document version v of key, n <= 64 KiB bytes long.
func docBytes(key uint64, v, n int) []byte {
	off := (key*31 + uint64(v)*7) % 256
	return bytes.Clone(pattern[off : off+uint64(n)])
}

// TestCacheMatchesReferenceSieve runs seeded operation sequences on the
// cache and on refSieve: every call must agree on hit or miss and on
// the bytes, and both must hold the same keys in the same order.
// Document sizes drift up and down, so buffers are reused, outgrown and
// shrunk out of.
func TestCacheMatchesReferenceSieve(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		c, ref := New(capacity), &refSieve{capacity: capacity}
		keys := 1 + capacity*(1+rng.Intn(4))
		size := rng.Intn(8 << 10)
		var dst []byte
		for step := 0; step < 2000; step++ {
			// Skewed keys, so some entries are visited and survive.
			key := uint64(rng.Intn(1 + rng.Intn(keys)))
			size = min(max(0, size+rng.Intn(4<<10)-2<<10), 24<<10)
			what := fmt.Sprintf("seed %d step %d key %d", seed, step, key)
			switch op := rng.Intn(100); {
			case op < 40:
				v := docBytes(key, step, size)
				c.Put(key, v)
				ref.put(key, v)
			case op < 65:
				got := c.Get(key)
				want, ok := ref.get(key)
				if (got != nil) != ok || !bytes.Equal(got, want) {
					t.Fatalf("%s: Get = %d bytes (hit %v), reference %d bytes (hit %v)", what, len(got), got != nil, len(want), ok)
				}
			case op < 95:
				prefix := docBytes(0, step, rng.Intn(64))
				var hit bool
				dst, hit = c.GetAppend(append(dst[:0], prefix...), key)
				want, ok := ref.get(key)
				if hit != ok || !bytes.Equal(dst, append(prefix, want...)) {
					t.Fatalf("%s: GetAppend hit %v, reference %v, or bytes differ", what, hit, ok)
				}
			case op < 99:
				if got, want := c.Remove(key), ref.remove(key); got != want {
					t.Fatalf("%s: Remove = %v, reference %v", what, got, want)
				}
			default:
				c.Purge()
				ref.purge()
			}
			if got := c.queue(t); !slices.Equal(got, ref.keys) {
				t.Fatalf("%s: queue %v, reference %v", what, got, ref.keys)
			}
		}
	}
}

// TestCacheConcurrentReadersAndEvictors runs four readers beside two
// writers that evict all the time, over documents whose bytes and size
// follow from their key. Every hit must read its key's bytes: a Get that
// handed out cache storage, or a copy made outside the lock, would read
// a buffer a writer is refilling, which -race reports.
func TestCacheConcurrentReadersAndEvictors(t *testing.T) {
	const keys = 64
	docs := make([][]byte, keys)
	for k := range docs {
		docs[k] = docBytes(uint64(k), 0, 1+k*k*3%9000)
	}
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var buf []byte
			for i := 0; i < 3000; i++ {
				key := uint64(rng.Intn(keys))
				var got []byte
				var hit bool
				switch {
				case g < 2:
					c.Put(key, docs[key])
					continue
				case i%2 == 0:
					got = c.Get(key)
					hit = got != nil
				default:
					buf, hit = c.GetAppend(buf[:0], key)
					got = buf
				}
				if hit && !bytes.Equal(got, docs[key]) {
					t.Errorf("reader %d: key %d read %d bytes, not its own %d", g, key, len(got), len(docs[key]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheHitRatioOnQueryLog replays the Zipf(1.1) id stream of the
// benchmark's live-mixed reads (2,973 documents, 300,000 reads, seed 1)
// through a 256-document cache, caching every miss. LRU hits 0.711 of
// these reads and a static cache of the 256 most popular ids 0.795.
func TestCacheHitRatioOnQueryLog(t *testing.T) {
	ids := workload.QueryLog(2973, 300_000, 1)
	c := New(256)
	doc := []byte("d")
	var buf []byte
	for _, id := range ids {
		var hit bool
		if buf, hit = c.GetAppend(buf[:0], uint64(id)); !hit {
			c.Put(uint64(id), doc)
		}
	}
	hits, misses := c.Stats()
	ratio := float64(hits) / float64(hits+misses)
	t.Logf("hit ratio %.4f over %d reads", ratio, len(ids))
	if ratio < 0.77 {
		t.Errorf("hit ratio %.4f, want at least 0.77", ratio)
	}
}

// TestCacheBufferCapBound sweeps document sizes up to 64 KiB and back
// down while every key is rewritten, then checks each slot's buffer
// against Put's bound, and that Remove and Purge drop buffers.
func TestCacheBufferCapBound(t *testing.T) {
	c := New(16)
	rng := rand.New(rand.NewSource(7))
	var sizes []int
	for n := 0; n <= 64<<10; n += 1 << 10 {
		sizes = append(sizes, n)
	}
	for n := 64 << 10; n >= 0; n -= 3 << 9 {
		sizes = append(sizes, n)
	}
	for step, n := range sizes {
		for j := 0; j < 24; j++ {
			key := uint64(rng.Intn(40))
			c.Put(key, docBytes(key, step, max(0, n-rng.Intn(512))))
			c.queue(t)
		}
	}
	if h := c.head; !c.Remove(c.slots[h].key) || c.slots[h].data != nil {
		t.Fatalf("Remove left slot %d a %d-byte buffer", h, cap(c.slots[h].data))
	}
	c.Purge()
	for i := range c.slots {
		if c.slots[i].data != nil {
			t.Fatalf("slot %d keeps a %d-byte buffer after Purge", i, cap(c.slots[i].data))
		}
	}
}

package lru

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(2)
	if got := c.Get(1); got != nil {
		t.Fatalf("Get on empty cache = %q, want nil", got)
	}
	c.Put(1, []byte("one"))
	c.Put(2, []byte("two"))
	if got := c.Get(1); !bytes.Equal(got, []byte("one")) {
		t.Fatalf("Get(1) = %q, want %q", got, "one")
	}
	if got := c.Get(2); !bytes.Equal(got, []byte("two")) {
		t.Fatalf("Get(2) = %q, want %q", got, "two")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestEvictionIsLRU(t *testing.T) {
	c := New(2)
	c.Put(1, []byte("one"))
	c.Put(2, []byte("two"))
	c.Get(1) // promote 1; 2 is now LRU
	c.Put(3, []byte("three"))
	if got := c.Get(2); got != nil {
		t.Fatalf("entry 2 should have been evicted, got %q", got)
	}
	if got := c.Get(1); !bytes.Equal(got, []byte("one")) {
		t.Fatalf("entry 1 should have survived, got %q", got)
	}
	if got := c.Get(3); !bytes.Equal(got, []byte("three")) {
		t.Fatalf("entry 3 should be cached, got %q", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestPutUpdatesExistingKey(t *testing.T) {
	c := New(2)
	c.Put(1, []byte("old"))
	c.Put(1, []byte("new"))
	if got := c.Get(1); !bytes.Equal(got, []byte("new")) {
		t.Fatalf("Get(1) = %q, want %q", got, "new")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Put, want 1", c.Len())
	}
}

// TestPutCopiesCallerSlice is the aliasing regression test for the put
// side: a caller that reuses its buffer after Put must not corrupt the
// cached entry.
func TestPutCopiesCallerSlice(t *testing.T) {
	c := New(4)
	buf := []byte("pristine")
	c.Put(7, buf)
	copy(buf, "clobber!")
	buf = append(buf[:0], "rewritten entirely"...)
	if got := c.Get(7); !bytes.Equal(got, []byte("pristine")) {
		t.Fatalf("cached entry aliased caller buffer: got %q, want %q", got, "pristine")
	}
}

// TestGetIsAppendProof is the aliasing regression test for the get side:
// appending to a cache hit must reallocate, never grow into cache-owned
// storage shared with adjacent state.
func TestGetIsAppendProof(t *testing.T) {
	c := New(4)
	c.Put(7, []byte("doc"))
	got := c.Get(7)
	if cap(got) != len(got) {
		t.Fatalf("Get returned cap %d > len %d; append would write into the cache", cap(got), len(got))
	}
	_ = append(got, " tail"...)
	if again := c.Get(7); !bytes.Equal(again, []byte("doc")) {
		t.Fatalf("append to a hit mutated the cache: got %q", again)
	}
}

func TestStats(t *testing.T) {
	c := New(2)
	c.Get(1)
	c.Put(1, []byte("x"))
	c.Get(1)
	c.Get(2)
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("Stats = (%d hits, %d misses), want (1, 2)", hits, misses)
	}
}

func TestTinyCapacity(t *testing.T) {
	c := New(0) // clamped to 1
	if c.Capacity() != 1 {
		t.Fatalf("Capacity = %d, want 1", c.Capacity())
	}
	c.Put(1, []byte("a"))
	c.Put(2, []byte("b"))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestConcurrentAccess calls every method from several goroutines at
// once, so that under -race a method that touches the `guarded by mu`
// fields without the lock fails here.
func TestConcurrentAccess(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := uint64(i % 16)
				want := []byte(fmt.Sprintf("value-%d", key))
				if got := c.Get(key); got != nil && !bytes.Equal(got, want) {
					t.Errorf("Get(%d) = %q, want %q", key, got, want)
					return
				}
				c.Put(key, want)
				if n := c.Len(); n > c.Capacity() {
					t.Errorf("Len = %d above capacity %d", n, c.Capacity())
					return
				}
				switch (i + g) % 50 {
				case 0:
					c.Purge()
				case 1, 17, 33:
					c.Remove(key)
				case 2:
					if hits, misses := c.Stats(); hits < 0 || misses < 0 {
						t.Errorf("Stats = %d, %d", hits, misses)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

package serve

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"rlz/internal/archive"
)

// epochDocs builds n distinguishable documents.
func epochDocs(n int) (docs [][]byte) {
	for i := 0; i < n; i++ {
		docs = append(docs, []byte(fmt.Sprintf("document %d with some body text", i)))
	}
	return docs
}

// closeTracker counts Close calls through to the wrapped reader.
type closeTracker struct {
	archive.Reader
	closed atomic.Int32
}

func (c *closeTracker) Close() error {
	c.closed.Add(1)
	return c.Reader.Close()
}

// TestBumpEpoch: advancing the epoch logically empties the cache
// without touching the reader — the delete-race-safe invalidation.
func TestBumpEpoch(t *testing.T) {
	docs := epochDocs(6)
	tracked := &closeTracker{Reader: buildArchive(t, docs, archive.Options{Backend: archive.Raw})}
	s := New(tracked, Options{CacheDocs: 16})
	for i := range docs {
		s.Get(i)
	}
	missesBefore := s.Stats().CacheMisses
	s.BumpEpoch()
	if s.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", s.Epoch())
	}
	if tracked.closed.Load() != 0 {
		t.Fatal("BumpEpoch closed the reader")
	}
	for i, want := range docs {
		got, err := s.Get(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) after bump: %v", i, err)
		}
	}
	if got := s.Stats().CacheMisses; got != missesBefore+int64(len(docs)) {
		t.Fatalf("misses = %d, want %d (cache logically emptied)", got, missesBefore+int64(len(docs)))
	}
	// The delete race in miniature: a Put under the old epoch's key must
	// be unreachable after the bump. Simulate by heating, bumping, then
	// verifying the first post-bump read is a miss even though the old
	// entry still occupies the LRU.
	s.Get(0)
	s.BumpEpoch()
	m := s.Stats().CacheMisses
	s.Get(0)
	if got := s.Stats().CacheMisses; got != m+1 {
		t.Fatalf("old-epoch entry served after bump")
	}
}

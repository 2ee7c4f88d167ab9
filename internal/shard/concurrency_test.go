package shard

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"rlz/internal/archive"
)

// TestConcurrentCreates races several independent sharded builds (each
// with internal pipelines) to shake out shared-state bugs in Create.
func TestConcurrentCreates(t *testing.T) {
	docs := makeDocs(40, 13)
	opts := optionsFor(docs)[archive.RLZ]
	root := t.TempDir()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			dir := filepath.Join(root, fmt.Sprintf("set-%d", k))
			_, errs[k] = Create(dir, archive.FromBodies(docs), Options{Shards: 3, Archive: opts})
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Errorf("build %d: %v", k, err)
		}
	}
	// All four sets must be byte-identical (determinism under contention).
	r0, err := archive.Open(filepath.Join(root, "set-0"))
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	for k := 1; k < 4; k++ {
		rk, err := archive.Open(filepath.Join(root, fmt.Sprintf("set-%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		if rk.Size() != r0.Size() || rk.NumDocs() != r0.NumDocs() {
			t.Errorf("set-%d differs from set-0", k)
		}
		rk.Close()
	}
}

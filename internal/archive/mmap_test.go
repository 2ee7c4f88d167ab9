package archive

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"rlz/internal/mmapio"
)

// TestOpenServesRawZeroCopy: a file-backed raw archive exposes the
// Viewer capability and serves byte-identical documents straight from
// the mapping wherever the platform supports one.
func TestOpenServesRawZeroCopy(t *testing.T) {
	docs := makeDocs(30, 9)
	path := filepath.Join(t.TempDir(), "arc")
	if _, err := Create(path, FromBodies(docs), Options{Backend: Raw}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	vw, ok := As[Viewer](r)
	if !ok {
		t.Fatalf("file-backed raw archive does not expose Viewer")
	}
	for id, want := range docs {
		served := false
		handled, err := vw.View(id, func(doc []byte) error {
			served = true
			if !bytes.Equal(doc, want) {
				t.Errorf("View(%d): got %d bytes, want %d", id, len(doc), len(want))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("View(%d): %v", id, err)
		}
		if mmapio.Supported() && (!handled || !served) {
			t.Fatalf("View(%d): handled=%v served=%v on mmap platform", id, handled, served)
		}
		// The copying path must agree regardless.
		got, err := r.Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d): %v", id, err)
		}
	}
}

// TestViewSteadyStateAllocs pins mmap-backed raw-segment reads at zero
// allocations once the reader is warm: a zero-copy View, and a GetAppend
// that copies out of the mapping.
func TestViewSteadyStateAllocs(t *testing.T) {
	if !mmapio.Supported() {
		t.Skip("no mmap on this platform")
	}
	docs := makeDocs(16, 17)
	path := filepath.Join(t.TempDir(), "arc")
	if _, err := Create(path, FromBodies(docs), Options{Backend: Raw}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	vw, ok := As[Viewer](r)
	if !ok {
		t.Fatalf("no Viewer on file-backed raw archive")
	}
	var sink int
	fn := func(doc []byte) error {
		sink += len(doc)
		return nil
	}
	id := 0
	allocs := testing.AllocsPerRun(200, func() {
		handled, err := vw.View(id, fn)
		if !handled || err != nil {
			t.Fatalf("View(%d): handled=%v err=%v", id, handled, err)
		}
		id = (id + 1) % len(docs)
	})
	if allocs > 0 {
		t.Fatalf("zero-copy View allocates %.1f times per read, want 0", allocs)
	}
	_ = sink
	if raceEnabled {
		return // the race detector's instrumentation allocates in GetAppend
	}
	// A copying read of the same mapping allocates nothing either.
	buf := make([]byte, 0, 4<<10)
	allocs = testing.AllocsPerRun(200, func() {
		if buf, err = r.GetAppend(buf[:0], id); err != nil || !bytes.Equal(buf, docs[id]) {
			t.Fatalf("GetAppend(%d): %v", id, err)
		}
		id = (id + 1) % len(docs)
	})
	if allocs > 0 {
		t.Fatalf("GetAppend on a mapped raw archive allocates %.1f times per read, want 0", allocs)
	}
}

// TestViewerConcurrent races many zero-copy readers over one mapping.
func TestViewerConcurrent(t *testing.T) {
	docs := makeDocs(20, 11)
	path := filepath.Join(t.TempDir(), "arc")
	if _, err := Create(path, FromBodies(docs), Options{Backend: Raw}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	vw, ok := As[Viewer](r)
	if !ok {
		t.Skip("no Viewer on this platform")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := (g + i) % len(docs)
				if _, err := vw.View(id, func(doc []byte) error {
					if !bytes.Equal(doc, docs[id]) {
						t.Errorf("View(%d): wrong bytes", id)
					}
					return nil
				}); err != nil {
					t.Errorf("View(%d): %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchReaderFileBacked: the block backend opened from a file
// exposes BatchReader; a batch with duplicates and a bad id visits every
// index exactly once with the right payloads.
func TestBatchReaderFileBacked(t *testing.T) {
	docs := makeDocs(25, 13)
	path := filepath.Join(t.TempDir(), "arc")
	if _, err := Create(path, FromBodies(docs), Options{Backend: Block, BlockSize: 512}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	br, ok := As[BatchReader](r)
	if !ok {
		t.Fatalf("file-backed block archive does not expose BatchReader")
	}
	ids := []int{3, 7, 3, 24, 999, 0}
	seen := make(map[int]bool)
	br.GetBatch(ids, 4, func(i int, doc []byte, err error) {
		if seen[i] {
			t.Errorf("index %d visited twice", i)
		}
		seen[i] = true
		if ids[i] == 999 {
			if err == nil {
				t.Errorf("bad id %d: no error", ids[i])
			}
			return
		}
		if err != nil {
			t.Errorf("id %d: %v", ids[i], err)
			return
		}
		if !bytes.Equal(doc, docs[ids[i]]) {
			t.Errorf("id %d: wrong bytes", ids[i])
		}
	})
	if len(seen) != len(ids) {
		t.Fatalf("visited %d of %d indices", len(seen), len(ids))
	}
}

package collection

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/faultfs"
	"rlz/internal/mmapio"
)

// raceDoc builds the deterministic document used by the mapping race
// tests, large enough that a stale pointer past an unmap would fault.
func raceDoc(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("<doc %04d:payload>", i)), 64)
}

// TestViewRacesCompactGCClose hammers Get/View/GetBatch from several
// goroutines while the writer appends (growing the open segment past
// remap boundaries), compacts, garbage-collects old generations and
// finally closes, with a second appender started just before the Close
// and running until the Close refuses it. Run under -race this checks
// the reference chain — view pin plus open-segment mapping ref — keeps
// zero-copy bytes alive for the duration of every callback across
// hot-swaps and unmaps, and that the closed flag is only touched under
// mu.
func TestViewRacesCompactGCClose(t *testing.T) {
	const seed = 128
	docs := make([][]byte, seed)
	for i := range docs {
		docs[i] = raceDoc(i)
	}
	c, _ := newCollection(t, docs)

	// Deterministic warmup: with the docs still in the open segment,
	// zero-copy views must succeed wherever the platform supports maps.
	var viewHits atomic.Int64
	for id := 0; id < seed; id++ {
		ok, err := c.View(id, func(b []byte) error {
			if !bytes.Equal(b, raceDoc(id)) {
				return fmt.Errorf("doc %d: got %d bytes, want %d", id, len(b), len(raceDoc(id)))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("warmup View(%d): %v", id, err)
		}
		if ok {
			viewHits.Add(1)
		}
	}
	if mmapio.Supported() && viewHits.Load() == 0 {
		t.Fatalf("no zero-copy views on a platform with mmap support")
	}

	var closing atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := rng.Intn(seed)
				want := raceDoc(id)
				switch rng.Intn(3) {
				case 0:
					_, err := c.View(id, func(b []byte) error {
						if !bytes.Equal(b, want) {
							return fmt.Errorf("got %d bytes, want %d", len(b), len(want))
						}
						return nil
					})
					if err != nil && !closing.Load() {
						t.Errorf("View(%d): %v", id, err)
						return
					}
				case 1:
					got, err := c.Get(id)
					if err != nil {
						if !closing.Load() {
							t.Errorf("Get(%d): %v", id, err)
						}
						return
					}
					if !bytes.Equal(got, want) {
						t.Errorf("Get(%d): got %d bytes, want %d", id, len(got), len(want))
						return
					}
				default:
					ids := make([]int, 8)
					for j := range ids {
						ids[j] = rng.Intn(seed)
					}
					c.GetBatch(ids, 4, func(i int, b []byte, err error) {
						if err != nil {
							if !closing.Load() {
								t.Errorf("GetBatch(%d): %v", ids[i], err)
							}
							return
						}
						if !bytes.Equal(b, raceDoc(ids[i])) {
							t.Errorf("GetBatch(%d): got %d bytes", ids[i], len(b))
						}
					})
				}
			}
		}(g)
	}

	closeSoon := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-closeSoon
		for {
			if _, err := c.Append([]byte("appended while closing")); err != nil {
				if !closing.Load() {
					t.Errorf("Append racing Close: %v", err)
				}
				return
			}
		}
	}()

	// Churn: each round grows the open segment across several remap
	// doublings, then compacts it into a sealed segment and GCs the
	// orphans. A fixed dictionary keeps compaction cheap under -race.
	dict := bytes.Repeat([]byte("<doc 0000:payload>"), 256)
	for round := 0; round < 2; round++ {
		big := bytes.Repeat([]byte{byte('a' + round)}, 16<<10)
		for i := 0; i < 32; i++ {
			if _, err := c.Append(big); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if _, err := c.Compact(CompactOptions{Dict: dict}); err != nil {
			t.Fatalf("Compact round %d: %v", round, err)
		}
		if _, err := c.GC(); err != nil {
			t.Fatalf("GC round %d: %v", round, err)
		}
	}
	close(closeSoon)
	// One more durable append gives the appender time to get going.
	if _, err := c.Append([]byte("appended before closing")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	closing.Store(true)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestReadsRacingPublishesDrainEveryView races readers against a stream of
// view publishes, one per Delete, then closes the collection: every member
// the views shared must have drained to zero references. A reader that pins
// a view just as a publish replaces it drops that pin and retries on the
// fresh view; keeping the pin, or dropping it twice, leaves a count off zero.
func TestReadsRacingPublishesDrainEveryView(t *testing.T) {
	docs := testDocs(300)
	dir := filepath.Join(t.TempDir(), "coll")
	if err := Init(dir); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{FS: faultfs.NewSim()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendBatch(docs); err != nil {
		t.Fatal(err)
	}
	members := c.view.Load().members
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf []byte
			for !stop.Load() {
				id := rng.Intn(len(docs))
				doc, err := c.GetAppend(buf[:0], id)
				if err != nil && !errors.Is(err, archive.ErrDeleted) {
					t.Errorf("GetAppend(%d) beside the deletes: %v", id, err)
					return
				}
				buf = doc
			}
		}(int64(r))
	}
	for id := range docs {
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if n := m.n.Load(); n != 0 {
			t.Errorf("member %s holds %d references after Close, want 0", m.path, n)
		}
	}
}

// TestViewAfterCloseFails pins down the post-Close behavior: every read
// fails closed, before it touches a segment whose mapping is gone.
func TestViewAfterCloseFails(t *testing.T) {
	docs := make([][]byte, 8)
	for i := range docs {
		docs[i] = raceDoc(i)
	}
	c, _ := newCollection(t, docs)
	// A compacted segment and an open one, so both kinds of member are
	// checked for a drain at Close.
	if _, err := c.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendBatch(docs); err != nil {
		t.Fatal(err)
	}
	// Every read releases its view pin, and only once: a read that kept it
	// would hold the view open past Close, so the reads after it would
	// succeed; one that released it twice drains the view under the next.
	for round := 0; round < 2; round++ {
		for _, id := range []int{3, len(docs) + 3} { // compacted, open
			if _, err := c.View(id, func(b []byte) error { return nil }); err != nil {
				t.Fatalf("View(%d): %v", id, err)
			}
		}
		if doc, err := c.GetAppend(nil, 3); err != nil || !bytes.Equal(doc, docs[3]) {
			t.Fatalf("GetAppend: %v", err)
		}
		if _, err := c.GetRange(3, 0, 4); err != nil {
			t.Fatalf("GetRange: %v", err)
		}
		if _, _, err := c.Extent(3); err != nil {
			t.Fatalf("Extent: %v", err)
		}
		if _, err := c.FindAll([]byte("payload"), 1); err != nil {
			t.Fatalf("FindAll: %v", err)
		}
		c.GetBatch([]int{1, 2}, 2, func(i int, doc []byte, err error) {
			if err != nil {
				t.Errorf("GetBatch: %v", err)
			}
		})
		if c.Size() == 0 || c.Stats().NumDocs != 2*len(docs) {
			t.Fatalf("Size/Stats: %d, %+v", c.Size(), c.Stats())
		}
	}
	v := c.view.Load()
	mapping := v.open.mapping.Load()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, m := range v.members {
		if n := m.n.Load(); n != 0 {
			t.Errorf("member %s holds %d references after Close, want 0", m.path, n)
		}
	}
	if mapping != nil && mapping.n.Load() != 0 {
		t.Errorf("the open segment's mapping holds %d references after Close, want 0", mapping.n.Load())
	}
	if ok, err := c.View(3, func(b []byte) error { return nil }); ok || !errors.Is(err, errClosed) {
		t.Errorf("View after Close: ok=%v err=%v", ok, err)
	}
	if doc, err := c.GetAppend([]byte("kept"), 3); !errors.Is(err, errClosed) || string(doc) != "kept" {
		t.Errorf("GetAppend after Close: %q, %v", doc, err)
	}
	if _, err := c.GetRange(3, 0, 4); !errors.Is(err, errClosed) {
		t.Errorf("GetRange after Close: %v", err)
	}
	if _, _, err := c.Extent(3); !errors.Is(err, errClosed) {
		t.Errorf("Extent after Close: %v", err)
	}
	if _, err := c.FindAll([]byte("payload"), 0); !errors.Is(err, errClosed) {
		t.Errorf("FindAll after Close: %v", err)
	}
	visited := 0
	c.GetBatch([]int{1, 2, 3}, 2, func(i int, doc []byte, err error) {
		visited++
		if doc != nil || !errors.Is(err, errClosed) {
			t.Errorf("GetBatch after Close: id %d: %d bytes, %v", i, len(doc), err)
		}
	})
	if visited != 3 {
		t.Errorf("GetBatch after Close visited %d of 3 ids", visited)
	}
	if c.Size() != 0 || c.Stats() != (archive.Stats{}) {
		t.Errorf("Size/Stats after Close: %d, %+v", c.Size(), c.Stats())
	}

	// A callback that closes the collection still reads whole documents:
	// the read's view pin, not the collection, keeps the segments (here a
	// sealed raw one, read through its mapping) open until the read returns.
	c, _ = newCollection(t, docs)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	c.GetBatch([]int{0, 1, 2, 3}, 1, func(i int, doc []byte, err error) {
		if i == 0 {
			if err := c.Close(); err != nil {
				t.Errorf("Close inside GetBatch: %v", err)
			}
		}
		if err != nil || !bytes.Equal(doc, docs[i]) {
			t.Errorf("GetBatch id %d after a Close inside the batch: %d bytes, %v", i, len(doc), err)
		}
	})
	c, _ = newCollection(t, docs)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	ok, err := c.View(5, func(doc []byte) error {
		if err := c.Close(); err != nil {
			return err
		}
		if !bytes.Equal(doc, docs[5]) {
			return errors.New("document changed under its view")
		}
		return nil
	})
	if err != nil || ok != mmapio.Supported() {
		t.Errorf("View with a Close inside its callback: ok=%v err=%v", ok, err)
	}
}

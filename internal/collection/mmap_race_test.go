package collection

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rlz/internal/archive"
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

// TestViewAfterCloseFails pins down the post-Close behavior: every read
// fails closed, before it touches a segment whose mapping is gone.
func TestViewAfterCloseFails(t *testing.T) {
	docs := make([][]byte, 8)
	for i := range docs {
		docs[i] = raceDoc(i)
	}
	c, _ := newCollection(t, docs)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
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
}

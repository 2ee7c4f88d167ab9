package collection

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rlz/internal/archive"
)

// fileSize returns the length of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestOpenSegmentKeepsBlocksUntilTrim: appends leave the open segment's
// length alone while they fit the blocks already zero-filled, a frame
// that runs past them fills one more step, and the zeros are cut by a
// seal and by Close, never read as documents.
func TestOpenSegmentKeepsBlocksUntilTrim(t *testing.T) {
	c, dir := newCollection(t, nil)
	docs := [][]byte{[]byte("first"), []byte("second")}
	for _, d := range docs {
		if _, err := c.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	open := c.view.Load().open
	path := filepath.Join(dir, open.name)
	if got := fileSize(t, path); got != fillStep {
		t.Fatalf("file is %d bytes after two appends, want one fill step (%d)", got, fillStep)
	}
	if err := c.Delete(0); err != nil { // flushes, and keeps the blocks
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), fillStep)
	if _, err := c.Append(big); err != nil {
		t.Fatal(err)
	}
	docs = append(docs, big)
	if got := fileSize(t, path); got != 2*fillStep {
		t.Fatalf("file is %d bytes after a frame spanning a step, want %d", got, 2*fillStep)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	// A sealed segment is an ordinary raw archive: frames, docmap, footer.
	if got, frames := fileSize(t, path), open.Size(); got <= frames || got > frames+64 {
		t.Fatalf("sealed file is %d bytes for %d bytes of frames: the fill was not cut", got, frames)
	}
	if _, err := c.Append([]byte("after the seal")); err != nil {
		t.Fatal(err)
	}
	docs = append(docs, []byte("after the seal"))
	open = c.view.Load().open
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, filepath.Join(dir, open.name)); got != open.Size() {
		t.Fatalf("open segment is %d bytes after Close, want its frames' %d", got, open.Size())
	}
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	checkDocs(t, c2, docs, map[int]bool{0: true})
}

// TestLeftoverLogRefused: a directory an older release left with its
// write-ahead log — over an open segment, or with everything sealed — is
// refused untouched; once the log is gone, as a release that drains it
// leaves the directory, it opens with every document.
func TestLeftoverLogRefused(t *testing.T) {
	for _, seal := range []bool{false, true} {
		t.Run(fmt.Sprintf("sealed=%v", seal), func(t *testing.T) {
			docs := testDocs(8)
			c, dir := newCollection(t, docs)
			if err := c.Delete(3); err != nil {
				t.Fatal(err)
			}
			if seal {
				if err := c.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			checkLogRefused(t, dir)
			c2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			checkDocs(t, c2, docs, map[int]bool{3: true})
		})
	}
}

// TestAppendBudget: MaxWALPending bounds the bytes appended but not yet
// flushed. A batch writes every document before it waits, so its second
// 600-byte document finds the first still pending and is shed; once the
// batch's flush returned, the budget is free again. Async appends wait for
// no flush and are never shed by it.
func TestAppendBudget(t *testing.T) {
	doc := bytes.Repeat([]byte("b"), 600)
	for _, async := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "coll")
		if err := Init(dir); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, Options{Async: async, MaxWALPending: 1000})
		if err != nil {
			t.Fatal(err)
		}
		ids, err := c.AppendBatch([][]byte{doc, doc, doc})
		if async {
			if err != nil || len(ids) != 3 {
				t.Fatalf("async batch = (%v, %v), want three ids", ids, err)
			}
		} else if !errors.Is(err, ErrBackpressure) || len(ids) != 1 {
			t.Fatalf("batch over the budget = (%v, %v), want one id and ErrBackpressure", ids, err)
		}
		if _, err := c.Append(doc); err != nil {
			t.Fatalf("async=%v: append after the batch: %v", async, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendAllocs pins the durable append below one allocation on
// average: the frame is written from the writer's own scratch and the
// group commit waits on the segment's watermark, not on a closure; fill
// steps, remaps and the document map's growth are amortized.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c, _ := newCollection(t, nil)
	doc := bytes.Repeat([]byte("<p>seventeen kilobytes of page</p>"), 500)
	if _, err := c.Append(doc); err != nil { // creates the open segment
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Append(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Fatalf("Collection.Append allocates %.2f times per append, want below 1", allocs)
	}
}

// TestSetReadsAllocateNothing pins the read path below the view pin at 0:
// a warm GetAppend or View through a view's segment set allocates nothing,
// whether it routes to a sealed RLZ segment or to the open segment. (The
// view pin's release func is the one allocation a Collection read adds.)
func TestSetReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	docs := testDocs(40)
	c, _ := newCollection(t, docs[:30])
	if _, err := c.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[30:] {
		if _, err := c.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	v := c.view.Load()
	if v.open == nil || len(v.members) != 2 {
		t.Fatalf("want one sealed segment and the open segment, have %d members", len(v.members))
	}
	if b := v.members[0].r.Stats().Backend; b != archive.RLZ {
		t.Fatalf("the compacted segment is %s, want %s", b, archive.RLZ)
	}
	set := v.set
	buf := make([]byte, 0, 4<<10)
	var err error
	for i, want := range docs { // warm the pools, check the bytes
		if buf, err = set.GetAppend(buf[:0], i); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("document %d: %v", i, err)
		}
	}
	var viewed int
	view := func(doc []byte) error { viewed += len(doc); return nil }
	for _, local := range []int{0, 29} { // the sealed segment: no zero-copy path, routed all the same
		if ok, err := set.View(local, view); ok || err != nil {
			t.Fatalf("View(%d) on the sealed RLZ segment = %v, %v; want a fallback", local, ok, err)
		}
	}
	if ok, err := set.View(35, view); !ok || err != nil {
		t.Fatalf("View(35) on the open segment = %v, %v; want it served from the mapping", ok, err)
	}
	// One loop per segment: AllocsPerRun rounds down, so an allocation on
	// a quarter of the reads would read as 0.
	for _, seg := range []struct {
		name     string
		first, n int
	}{{"sealed RLZ", 0, 30}, {"open", 30, 10}} {
		id := 0
		if n := testing.AllocsPerRun(200, func() {
			buf, _ = set.GetAppend(buf[:0], seg.first+id%seg.n)
			id++
		}); n != 0 {
			t.Errorf("GetAppend through the segment set to the %s segment allocates %v objects per read, want 0", seg.name, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			_, _ = set.View(seg.first+id%seg.n, view)
			id++
		}); n != 0 {
			t.Errorf("View through the segment set to the %s segment allocates %v objects per read, want 0", seg.name, n)
		}
	}
}

// TestDurableAppendRaces runs eight appenders beside a batch appender, a
// deleter, a sealer and a compactor, and closes the collection under
// them. Every append either is acknowledged or fails because the
// collection closed — a waiter whose frame a seal, a delete or Close
// already flushed never fails, nor touches a closed file — and after
// reopening every acknowledged id reads back (deleted ones as deleted).
func TestDurableAppendRaces(t *testing.T) {
	const appenders = 8
	each := 60
	if testing.Short() {
		each = 25
	}
	dir := filepath.Join(t.TempDir(), "coll")
	if err := Init(dir); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	closedErr := func(err error) bool { return err != nil && strings.Contains(err.Error(), "closed collection") }

	var mu sync.Mutex
	acked := make(map[int][]byte)
	deleted := make(map[int]bool)
	var ids []int // acknowledged ids, for the deleter
	ack := func(id int, doc []byte) {
		mu.Lock()
		defer mu.Unlock()
		if prev, dup := acked[id]; dup {
			t.Errorf("id %d acknowledged twice (%q, %q)", id, prev, doc)
		}
		acked[id] = doc
		ids = append(ids, id)
	}

	var workers, underWay sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for g := 0; g < appenders; g++ {
		workers.Add(1)
		underWay.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := 0; ; i++ {
				doc := []byte(fmt.Sprintf("<appender %d doc %d>%s", g, i, strings.Repeat("race ", i%50)))
				id, err := c.Append(doc)
				if i == each {
					underWay.Done()
				}
				if closedErr(err) {
					if i < each {
						underWay.Done()
					}
					return
				}
				if err != nil {
					t.Errorf("appender %d doc %d: %v", g, i, err)
					if i < each {
						underWay.Done()
					}
					return
				}
				ack(id, doc)
			}
		}(g)
	}
	workers.Add(1)
	go func() { // batches of four
		defer workers.Done()
		for i := 0; ; i++ {
			docs := make([][]byte, 4)
			for j := range docs {
				docs[j] = []byte(fmt.Sprintf("<batch %d doc %d>", i, j))
			}
			got, err := c.AppendBatch(docs)
			for j, id := range got {
				ack(id, docs[j])
			}
			if closedErr(err) {
				return
			}
			if err != nil || len(got) != len(docs) {
				t.Errorf("batch %d: %d of %d acknowledged, %v", i, len(got), len(docs), err)
				return
			}
		}
	}()
	workers.Add(1)
	go func() { // deletes acknowledged ids, open segment or not
		defer workers.Done()
		rng := rand.New(rand.NewSource(1))
		for !stopped() {
			mu.Lock()
			id := -1
			if len(ids) > 0 {
				id = ids[rng.Intn(len(ids))]
			}
			mu.Unlock()
			if id < 0 {
				continue
			}
			err := c.Delete(id)
			if err == nil {
				mu.Lock()
				deleted[id] = true
				mu.Unlock()
				continue
			}
			if strings.Contains(err.Error(), "closed collection") {
				return
			}
			if !errors.Is(err, ErrDeleted) {
				t.Errorf("delete %d: %v", id, err)
				return
			}
		}
	}()
	workers.Add(1)
	go func() { // seals
		defer workers.Done()
		for !stopped() {
			if err := c.Seal(); err != nil {
				if !strings.Contains(err.Error(), "closed collection") {
					t.Errorf("seal: %v", err)
				}
				return
			}
		}
	}()
	workers.Add(1)
	go func() { // compacts
		defer workers.Done()
		for n := 0; n < 3 && !stopped(); n++ {
			if _, err := c.Compact(CompactOptions{}); err != nil && !errors.Is(err, ErrCompacting) {
				if !strings.Contains(err.Error(), "closed collection") {
					t.Errorf("compact: %v", err)
				}
				return
			}
		}
	}()

	underWay.Wait()
	close(stop)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	workers.Wait()

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for id, want := range acked {
		got, err := c2.Get(id)
		if deleted[id] {
			if !errors.Is(err, ErrDeleted) {
				t.Fatalf("deleted id %d after reopen: (%d bytes, %v)", id, len(got), err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("acknowledged id %d after reopen: (%q, %v), want %q", id, got, err, want)
		}
	}
}

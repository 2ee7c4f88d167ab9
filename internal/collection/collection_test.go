package collection

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/docmap"
	"rlz/internal/faultfs"
	"rlz/internal/rawstore"
)

// testDocs builds a deterministic, compressible document set.
func testDocs(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf(
			"<doc id=%d>the quick brown fox jumps over the lazy dog %d; shared boilerplate header and footer text</doc>", i, i*i))
	}
	return docs
}

// newCollection initializes a collection in a temp dir and appends docs.
func newCollection(t *testing.T, docs [][]byte) (*Collection, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "coll")
	if err := Init(dir); err != nil {
		t.Fatalf("Init: %v", err)
	}
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	for i, d := range docs {
		id, err := c.Append(d)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if id != i {
			t.Fatalf("Append %d returned id %d", i, id)
		}
	}
	return c, dir
}

// checkDocs asserts every non-deleted document round-trips byte-identically
// and every deleted id returns not-found.
func checkDocs(t *testing.T, r archive.Reader, docs [][]byte, deleted map[int]bool) {
	t.Helper()
	if r.NumDocs() != len(docs) {
		t.Fatalf("NumDocs = %d, want %d", r.NumDocs(), len(docs))
	}
	for i, want := range docs {
		got, err := r.Get(i)
		if deleted[i] {
			if !errors.Is(err, docmap.ErrNoSuchDoc) {
				t.Fatalf("doc %d: deleted but Get returned (%q, %v)", i, got, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("doc %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestAppendReadImmediately(t *testing.T) {
	docs := testDocs(50)
	c, _ := newCollection(t, docs)
	checkDocs(t, c, docs, nil)
	if g := c.Generation(); g != 2 { // init=1, open-segment creation=2
		t.Fatalf("generation = %d, want 2", g)
	}
	info := c.Info()
	if info.OpenDocs != 50 || info.PendingDocs != 50 || len(info.Segments) != 0 {
		t.Fatalf("info = %+v", info)
	}
}

func TestReopenRecoversAppends(t *testing.T) {
	docs := testDocs(20)
	c, dir := newCollection(t, docs)
	// Close simulates a clean shutdown WITHOUT sealing: the manifest
	// still names the open segment and recovery must replay the sidecar.
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	checkDocs(t, c2, docs, nil)
	// And appends continue with stable ids.
	id, err := c2.Append([]byte("after reopen"))
	if err != nil || id != 20 {
		t.Fatalf("Append after reopen = (%d, %v), want (20, nil)", id, err)
	}
}

func TestSealThenRead(t *testing.T) {
	docs := testDocs(30)
	c, dir := newCollection(t, docs)
	if err := c.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	info := c.Info()
	if len(info.Segments) != 1 || info.Segments[0].Backend != archive.Raw || info.OpenDocs != 0 {
		t.Fatalf("info after seal = %+v", info)
	}
	checkDocs(t, c, docs, nil)
	// The manifest's raw figure is document bytes, not the file's extent:
	// per-dictionary ratios divide by it.
	var docBytes int64
	for _, d := range docs {
		docBytes += int64(len(d))
	}
	if man, err := ReadManifest(filepath.Join(dir, ManifestName)); err != nil || man.Segments[0].Raw != docBytes {
		t.Fatalf("sealed segment's Raw = %+v (%v), want %d", man.Segments, err, docBytes)
	}

	// The sealed segment is a plain rawstore archive on disk.
	sr, err := archive.Open(filepath.Join(dir, info.Segments[0].Path))
	if err != nil {
		t.Fatalf("opening sealed segment directly: %v", err)
	}
	defer sr.Close()
	if sr.Stats().Backend != archive.Raw || sr.NumDocs() != 30 {
		t.Fatalf("sealed segment stats = %+v", sr.Stats())
	}

	// Appends after a seal open a new segment; ids continue.
	id, err := c.Append([]byte("post-seal"))
	if err != nil || id != 30 {
		t.Fatalf("Append after seal = (%d, %v)", id, err)
	}
	got, err := c.Get(30)
	if err != nil || string(got) != "post-seal" {
		t.Fatalf("Get(30) = (%q, %v)", got, err)
	}
}

func TestCompactPreservesDocsAndIDs(t *testing.T) {
	docs := testDocs(40)
	c, _ := newCollection(t, docs)
	res, err := c.Compact(CompactOptions{})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if res.Docs != 40 || res.Compacted != 1 || len(res.NewSegments) != 1 {
		t.Fatalf("result = %+v", res)
	}
	info := c.Info()
	if len(info.Segments) != 1 || info.Segments[0].Backend != archive.RLZ || info.PendingDocs != 0 {
		t.Fatalf("info after compact = %+v", info)
	}
	checkDocs(t, c, docs, nil)

	// A second compaction is a no-op.
	res2, err := c.Compact(CompactOptions{})
	if err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if res2.Compacted != 0 {
		t.Fatalf("second compaction compacted %d segments", res2.Compacted)
	}

	// More appends + another compaction merge the new raw tail only.
	for i := 40; i < 60; i++ {
		if _, err := c.Append(docs[i%40]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	res3, err := c.Compact(CompactOptions{})
	if err != nil {
		t.Fatalf("third Compact: %v", err)
	}
	if res3.Docs != 20 {
		t.Fatalf("third compaction docs = %d, want 20", res3.Docs)
	}
	all := append(append([][]byte{}, docs...), docs[0:20]...)
	for i := 40; i < 60; i++ {
		all[i] = docs[i%40]
	}
	checkDocs(t, c, all, nil)
	if n := len(c.Info().Segments); n != 2 {
		t.Fatalf("segments = %d, want 2", n)
	}
}

func TestDeleteTombstonesAcrossCompaction(t *testing.T) {
	docs := testDocs(25)
	c, dir := newCollection(t, docs)
	deleted := map[int]bool{3: true, 17: true, 24: true}
	for id := range deleted {
		if err := c.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
	}
	checkDocs(t, c, docs, deleted)

	// Deleting again, or deleting the unknown, errors.
	if err := c.Delete(3); !errors.Is(err, ErrDeleted) {
		t.Fatalf("double delete: %v", err)
	}
	if err := c.Delete(99); !errors.Is(err, docmap.ErrNoSuchDoc) {
		t.Fatalf("delete oob: %v", err)
	}

	// Tombstones survive compaction and reopen.
	if _, err := c.Compact(CompactOptions{}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	checkDocs(t, c, docs, deleted)
	c.Close()
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	checkDocs(t, c2, docs, deleted)
	if got := c2.Info().Tombstones; got != 3 {
		t.Fatalf("tombstones = %d, want 3", got)
	}
}

func TestOpenViaArchiveOpen(t *testing.T) {
	docs := testDocs(15)
	c, dir := newCollection(t, docs)
	if _, err := c.Compact(CompactOptions{}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for i := 15; i < 20; i++ {
		if _, err := c.Append(docs[i-15]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	c.Close()

	// archive.Open on the directory and on the manifest path both
	// dispatch to the collection.
	for _, p := range []string{dir, filepath.Join(dir, ManifestName)} {
		r, err := archive.Open(p)
		if err != nil {
			t.Fatalf("archive.Open(%s): %v", p, err)
		}
		if _, ok := archive.As[*Collection](r); !ok {
			t.Fatalf("archive.As[*Collection] failed for %s", p)
		}
		if r.Stats().Backend != archive.Live {
			t.Fatalf("backend = %s", r.Stats().Backend)
		}
		all := append(append([][]byte{}, docs...), docs[0:5]...)
		checkDocs(t, r, all, nil)
		r.Close()
	}
}

func TestSearchAcrossGenerations(t *testing.T) {
	docs := [][]byte{
		[]byte("alpha needle beta"),
		[]byte("no match here"),
		[]byte("needle at start and needle again"),
		[]byte("tail needle"),
	}
	c, _ := newCollection(t, docs)
	// Mixed shape: docs 0-1 compacted to RLZ, 2 sealed raw, 3 open.
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(docs[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(docs[3]); err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, docs...), docs[2], docs[3])
	checkDocs(t, c, full, nil)

	ms, err := c.FindAll([]byte("needle"), 0)
	if err != nil {
		t.Fatalf("FindAll: %v", err)
	}
	want := []archive.Match{{Doc: 0, Offset: 6}, {Doc: 2, Offset: 0}, {Doc: 2, Offset: 20}, {Doc: 3, Offset: 5}, {Doc: 4, Offset: 0}, {Doc: 4, Offset: 20}, {Doc: 5, Offset: 5}}
	if len(ms) != len(want) {
		t.Fatalf("FindAll = %v, want %v", ms, want)
	}
	for i := range ms {
		if ms[i] != want[i] {
			t.Fatalf("match %d = %v, want %v", i, ms[i], want[i])
		}
	}

	// Limit honored; deleted docs never match.
	ms, err = c.FindAll([]byte("needle"), 2)
	if err != nil || len(ms) != 2 {
		t.Fatalf("FindAll limit: %v %v", ms, err)
	}
	if err := c.Delete(2); err != nil {
		t.Fatal(err)
	}
	ms, err = c.FindAll([]byte("needle"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Doc == 2 {
			t.Fatalf("deleted doc matched: %v", ms)
		}
	}

	// GetRange clamps and honors tombstones.
	got, err := c.GetRange(0, 6, 12)
	if err != nil || string(got) != "needle" {
		t.Fatalf("GetRange = (%q, %v)", got, err)
	}
	if _, err := c.GetRange(2, 0, 5); !errors.Is(err, ErrDeleted) {
		t.Fatalf("GetRange on deleted: %v", err)
	}
	got, err = c.GetRange(5, -3, 1000)
	if err != nil || string(got) != string(docs[3]) {
		t.Fatalf("clamped GetRange = (%q, %v)", got, err)
	}
}

func TestGCRemovesOrphans(t *testing.T) {
	docs := testDocs(10)
	c, dir := newCollection(t, docs)
	if _, err := c.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	// Plant orphans a crashed compaction/seal could leave.
	for _, name := range []string{"seg-99999999", "seg-00000077.tmp", "seg-00000003.lens", "MANIFEST.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// And one unrelated user file gc must not touch.
	if err := os.WriteFile(filepath.Join(dir, "NOTES.txt"), []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := c.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if len(removed) != 4 {
		t.Fatalf("GC removed %v", removed)
	}
	if _, err := os.Stat(filepath.Join(dir, "NOTES.txt")); err != nil {
		t.Fatalf("GC touched the user's file: %v", err)
	}
	checkDocs(t, c, docs, nil)
	// The collection still reopens cleanly.
	c.Close()
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after GC: %v", err)
	}
	defer c2.Close()
	checkDocs(t, c2, docs, nil)
	// Releases before raw format version 2 kept a length sidecar beside
	// the open segment; one left behind is garbage, the segment is not.
	if _, err := c2.Append([]byte("opens a segment")); err != nil {
		t.Fatal(err)
	}
	open := c2.Info().OpenSeg
	if err := os.WriteFile(filepath.Join(dir, open+".lens"), []byte{15}, 0o644); err != nil {
		t.Fatal(err)
	}
	if removed, err = c2.GC(); err != nil || len(removed) != 1 || removed[0] != open+".lens" {
		t.Fatalf("GC = (%v, %v), want the stale sidecar alone", removed, err)
	}
	checkDocs(t, c2, append(docs[:len(docs):len(docs)], []byte("opens a segment")), nil)
}

// A version-1 open segment has no frames to recover by: it is refused
// with the way out, not resumed and not emptied. The bytes are what a
// release before version 2 left in the file after two appends.
func TestOpenRefusesVersion1OpenSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "coll")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	const seg = "seg-00000001"
	v1 := []byte("RAWS\x01" + "hello" + "world!")
	if err := os.WriteFile(filepath.Join(dir, seg), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(faultfs.OS, dir, &Manifest{Generation: 2, NextSeq: 2, OpenSeg: seg}); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if !errors.Is(err, rawstore.ErrVersion1) || !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), "rlz compact") {
		t.Fatalf("Open over a version-1 open segment = %v", err)
	}
	if got, rerr := os.ReadFile(filepath.Join(dir, seg)); rerr != nil || !bytes.Equal(got, v1) {
		t.Fatalf("the refused segment was modified: %v", rerr)
	}
}

// TestConcurrentAppendRead hammers the read path while the write path
// appends, deletes, seals and compacts — the live-store contract, run
// under -race in CI. Compaction runs on its own goroutine beside the
// appends, as rlzd's auto-compactor does, and a maintenance goroutine
// calls GC and Info throughout, so that under -race a method touching a
// `guarded by mu` field without mu fails here.
func TestConcurrentAppendRead(t *testing.T) {
	docs := testDocs(400)
	c, _ := newCollection(t, docs[:100])
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.GC(); err != nil && !errors.Is(err, ErrCompacting) {
				t.Errorf("GC: %v", err)
				return
			}
			if info := c.Info(); info.NumDocs < 100 {
				t.Errorf("Info: %d documents, want at least 100", info.NumDocs)
				return
			}
		}
	}()
	compactNow := make(chan struct{})
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		for range compactNow {
			if _, err := c.Compact(CompactOptions{}); err != nil {
				t.Errorf("Compact: %v", err)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var buf []byte
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := c.NumDocs()
				if n == 0 {
					continue
				}
				id := i % n
				i++
				var err error
				buf, err = c.GetAppend(buf[:0], id)
				if err != nil {
					if errors.Is(err, docmap.ErrNoSuchDoc) {
						continue // deleted or raced past the tail
					}
					t.Errorf("GetAppend(%d): %v", id, err)
					return
				}
				if want := docs[id%400]; !bytes.Equal(buf, want) {
					t.Errorf("doc %d: %d bytes, want %d", id, len(buf), len(want))
					return
				}
			}
		}(w * 31)
	}
	for i := 100; i < 400; i++ {
		if _, err := c.Append(docs[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
		switch i {
		case 150:
			if err := c.Delete(42); err != nil {
				t.Fatal(err)
			}
		case 125, 200, 250, 300, 350:
			compactNow <- struct{}{}
		}
	}
	close(compactNow)
	<-compacted
	close(stop)
	wg.Wait()
	checkDocs(t, c, docs, map[int]bool{42: true})
}

func TestNestedCollectionRejected(t *testing.T) {
	docs := testDocs(5)
	c, dir := newCollection(t, docs)
	c.Close()
	// A manifest naming another collection (here: itself via a copied
	// manifest file) must be rejected, not recursed into.
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	inner := filepath.Join(t.TempDir(), "inner")
	if err := Init(inner); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(inner, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-evil"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	man.Segments = append(man.Segments, Segment{Path: "seg-evil", Docs: 0})
	man.Generation++
	if err := WriteManifest(faultfs.OS, dir, man); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("nested collection: %v", err)
	}
}

// TestSyncAppendsOption keeps its name from the removed per-append-fsync
// option: the default mode is the one way to get an append durable
// before its id returns.
func TestSyncAppendsOption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "coll")
	if err := Init(dir); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Append([]byte("durable")); err != nil {
		t.Fatalf("synced append: %v", err)
	}
	got, err := c.Get(0)
	if err != nil || string(got) != "durable" {
		t.Fatalf("Get = (%q, %v)", got, err)
	}
}

// TestCompactAllTombstoned: a collection whose every pending document is
// deleted must still drain into an RLZ segment (the auto-compactor
// would otherwise retry it forever), and a later compaction with real
// bytes still samples a proper persisted dictionary.
func TestCompactAllTombstoned(t *testing.T) {
	docs := testDocs(4)
	c, dir := newCollection(t, docs)
	for i := range docs {
		if err := c.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Compact(CompactOptions{})
	if err != nil {
		t.Fatalf("Compact with everything tombstoned: %v", err)
	}
	if res.Docs != 4 || c.Info().PendingDocs != 0 {
		t.Fatalf("result %+v, info %+v", res, c.Info())
	}
	deleted := map[int]bool{0: true, 1: true, 2: true, 3: true}
	checkDocs(t, c, docs, deleted)
	// The degenerate placeholder dictionary must not have been versioned.
	if man, err := ReadManifest(filepath.Join(dir, ManifestName)); err != nil || len(man.Dicts) != 0 {
		t.Fatalf("placeholder dictionary versioned: dicts %+v, %v", man.Dicts, err)
	}
	if res.Dict != 0 || res.Relearned {
		t.Fatalf("placeholder compaction reported dict %d (relearned %v)", res.Dict, res.Relearned)
	}
	// Real documents afterwards sample a real dictionary.
	for _, d := range docs {
		if _, err := c.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	res, err = c.Compact(CompactOptions{})
	if err != nil {
		t.Fatalf("second compaction: %v", err)
	}
	if res.Dict == 0 || !res.Relearned {
		t.Fatalf("second compaction result %+v, want an adopted dictionary", res)
	}
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil || len(man.Dicts) != 1 {
		t.Fatalf("manifest dicts %+v, %v", man, err)
	}
	if st, err := os.Stat(filepath.Join(dir, man.Dicts[0].Path)); err != nil || st.Size() == 0 {
		t.Fatalf("real dictionary not persisted: %v", err)
	}
	all := append(append([][]byte{}, docs...), docs...)
	checkDocs(t, c, all, deleted)
}

// TestCompactionReleasesDescriptors: superseded segment readers and
// sealed open-segment handles must close when their last view drains,
// not pile up until Close — a continuously compacting daemon would
// otherwise exhaust descriptors and pin unlinked files' disk space.
func TestCompactionReleasesDescriptors(t *testing.T) {
	fdCount := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	docs := testDocs(8)
	c, _ := newCollection(t, docs)
	if _, err := c.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	base := fdCount()
	for cycle := 0; cycle < 10; cycle++ {
		for _, d := range docs {
			if _, err := c.Append(d); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Compact(CompactOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Each cycle legitimately adds ONE live RLZ segment (compaction
	// merges raw runs, not adjacent RLZ segments), holding one open
	// descriptor. Everything else the cycle opened — the open segment's
	// data+sidecar pair, the sealed raw reader, the replaced raw reader
	// — must have drained and closed; leaking those would add ~4 more
	// per cycle (~40 total).
	added := len(c.Info().Segments) - 1
	if got := fdCount(); got > base+added+5 {
		t.Fatalf("fd count grew from %d to %d across 10 compaction cycles (%d live segments added)", base, got, added)
	}
	checkDocs(t, c, append(append([][]byte{}, docs...), func() [][]byte {
		var out [][]byte
		for i := 0; i < 10; i++ {
			out = append(out, docs...)
		}
		return out
	}()...), nil)
}

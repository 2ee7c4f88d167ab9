package collection

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rlz/internal/faultfs"
	"rlz/internal/wal"
)

// dropWAL removes the write-ahead log, for scenarios that simulate the
// total loss of open-segment documents: with the log present, recovery
// would (correctly) replay the acknowledged appends the scenario
// pretends are gone, so these tests model an Async-mode crash where no
// durable copy exists.
func dropWAL(t *testing.T, dir string) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, wal.FileName)); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
}

// frameHeader is the size of rawstore's per-document [u32 len][u32 crc].
const frameHeader = 8

// frameStart returns the open segment's path and the offset in it of
// the frame holding document id (which must be in the open segment).
func frameStart(t *testing.T, c *Collection, id int) (string, int64) {
	t.Helper()
	off, _, err := c.Extent(id)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(c.dir, c.view.Load().open.name), off - frameHeader
}

// Crash-safety suite: every test simulates a process death at one point
// of the publish or append protocol, then proves reopening sees either
// the old or the new state — never a torn one.

// crashSetup builds a collection with n appended docs and closes it
// without sealing, returning dir and the docs.
func crashSetup(t *testing.T, n int) (string, [][]byte) {
	t.Helper()
	docs := testDocs(n)
	c, dir := newCollection(t, docs)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, docs
}

func reopenCheck(t *testing.T, dir string, docs [][]byte) *Collection {
	t.Helper()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	checkDocs(t, c, docs, nil)
	return c
}

// Crash between manifest tmp write and rename: the tmp file exists (in
// any state of completeness) but the rename never happened. Reopening
// must serve the OLD generation and gc must drop the tmp.
func TestCrashBeforeManifestRename(t *testing.T) {
	dir, docs := crashSetup(t, 12)
	old, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, tmp := range [][]byte{
		nil,                        // created, nothing written
		old[:3],                    // torn header
		old[:len(old)-2],           // torn footer
		[]byte("garbage manifest"), // wrong bytes entirely
	} {
		if err := os.WriteFile(filepath.Join(dir, ManifestName+".tmp"), tmp, 0o644); err != nil {
			t.Fatal(err)
		}
		c := reopenCheck(t, dir, docs)
		if got, err := os.ReadFile(filepath.Join(dir, ManifestName)); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("manifest changed by recovery: %v", err)
		}
		removed, err := c.GC()
		if err != nil {
			t.Fatalf("GC: %v", err)
		}
		found := false
		for _, r := range removed {
			if r == ManifestName+".tmp" {
				found = true
			}
		}
		if !found {
			t.Fatalf("GC kept the torn manifest tmp: %v", removed)
		}
		c.Close()
	}
}

// Crash after rename: the new manifest is fully in place. Reopening sees
// the NEW generation (trivially true, but it pins the invariant that the
// rename is the commit point and nothing after it is needed).
func TestCrashAfterManifestRename(t *testing.T) {
	dir, docs := crashSetup(t, 12)
	c := reopenCheck(t, dir, docs)
	gen := c.Generation()
	c.Close()
	// Idempotent: a second recovery sees the same generation.
	c2 := reopenCheck(t, dir, docs)
	if c2.Generation() != gen {
		t.Fatalf("generation drifted: %d != %d", c2.Generation(), gen)
	}
}

// Crash mid-append: part of a frame is on the file. Recovery truncates
// to the last whole document.
func TestCrashTornAppendData(t *testing.T) {
	dir, docs := crashSetup(t, 10)
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, man.OpenSeg)
	f, err := os.OpenFile(data, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("half a docum")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c := reopenCheck(t, dir, docs) // the torn tail is invisible
	// Appending resumes on a clean boundary.
	id, err := c.Append([]byte("fresh"))
	if err != nil || id != 10 {
		t.Fatalf("Append = (%d, %v)", id, err)
	}
	got, err := c.Get(10)
	if err != nil || string(got) != "fresh" {
		t.Fatalf("Get(10) = (%q, %v)", got, err)
	}
}

// Crash between the seal's in-place footer write and the manifest swap:
// the data file carries a rawstore footer but the manifest still calls
// the segment open. Recovery must drop the footer and keep appending.
func TestCrashBetweenSealAndPublish(t *testing.T) {
	dir, docs := crashSetup(t, 10)
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	// Reproduce the seal's first half by hand: finalize the rawstore
	// footer without publishing.
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := c.view.Load()
	if err := v.open.seal(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Manifest still names the segment open.
	man2, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if man2.OpenSeg != man.OpenSeg {
		t.Fatalf("manifest moved: %q != %q", man2.OpenSeg, man.OpenSeg)
	}
	c2 := reopenCheck(t, dir, docs)
	id, err := c2.Append([]byte("post-crash append"))
	if err != nil || id != 10 {
		t.Fatalf("Append = (%d, %v)", id, err)
	}
	if err := c2.Seal(); err != nil {
		t.Fatalf("re-seal: %v", err)
	}
	all := append(append([][]byte{}, docs...), []byte("post-crash append"))
	checkDocs(t, c2, all, nil)
}

// Crash mid-compaction: the replacement segment exists as a .tmp (or
// even fully renamed but unpublished). Reopening serves the old
// generation; gc removes the leftovers.
func TestCrashMidCompaction(t *testing.T) {
	dir, docs := crashSetup(t, 10)
	// Fake a crashed compaction: a half-built tmp and an unpublished
	// fully-renamed segment.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000042.tmp"), []byte("partial build"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000043"), []byte("RLZAnot really"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := reopenCheck(t, dir, docs)
	removed, err := c.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("GC removed %v, want both leftovers", removed)
	}
	// The real compaction still works afterwards.
	if _, err := c.Compact(CompactOptions{}); err != nil {
		t.Fatalf("Compact after crash: %v", err)
	}
	checkDocs(t, c, docs, nil)
}

// The very first append crashing inside its frame: all data is
// truncated, the collection is simply empty again.
func TestCrashFirstAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "coll")
	if err := Init(dir); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	path, at := frameStart(t, c, 0)
	c.Close()
	// The frame's tail "never hit the disk".
	if err := os.Truncate(path, at+frameHeader+3); err != nil {
		t.Fatal(err)
	}
	dropWAL(t, dir)
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.NumDocs() != 0 {
		t.Fatalf("NumDocs = %d, want 0", c2.NumDocs())
	}
	if _, err := c2.Get(0); !errors.Is(err, os.ErrNotExist) && err == nil {
		t.Fatalf("Get(0) on empty = %v", err)
	}
	id, err := c2.Append([]byte("second life"))
	if err != nil || id != 0 {
		t.Fatalf("Append = (%d, %v)", id, err)
	}
}

// Total loss of the data file's bytes (below even the header) rebuilds
// the open segment empty instead of resuming over a hole.
func TestCrashDataFileObliterated(t *testing.T) {
	dir, _ := crashSetup(t, 6)
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, man.OpenSeg), 2); err != nil {
		t.Fatal(err)
	}
	dropWAL(t, dir)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after obliteration: %v", err)
	}
	defer c.Close()
	if c.NumDocs() != 0 {
		t.Fatalf("NumDocs = %d, want 0 (segment rebuilt empty)", c.NumDocs())
	}
	id, err := c.Append([]byte("fresh start"))
	if err != nil || id != 0 {
		t.Fatalf("Append = (%d, %v)", id, err)
	}
	if err := c.Seal(); err != nil {
		t.Fatalf("seal after rebuild: %v", err)
	}
	got, err := c.Get(0)
	if err != nil || string(got) != "fresh start" {
		t.Fatalf("Get = (%q, %v)", got, err)
	}
}

// A crashed compaction can leave a fully renamed segment under the next
// unpersisted sequence number. The open-segment allocator must skip the
// orphan instead of failing on O_EXCL forever.
func TestCrashOrphanOccupiesNextSeq(t *testing.T) {
	docs := testDocs(6)
	c, dir := newCollection(t, docs)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the next TWO sequence numbers, as a crashed multi-run
	// compaction would.
	for seq := man.NextSeq; seq < man.NextSeq+2; seq++ {
		if err := os.WriteFile(filepath.Join(dir, segFileName(seq)), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	id, err := c.Append([]byte("lands past the orphans"))
	if err != nil {
		t.Fatalf("append with orphaned seqs: %v", err)
	}
	if id != 6 {
		t.Fatalf("id = %d, want 6", id)
	}
	got, err := c.Get(6)
	if err != nil || string(got) != "lands past the orphans" {
		t.Fatalf("Get = (%q, %v)", got, err)
	}
	// gc clears the orphans; the open segment survives.
	removed, err := c.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("GC removed %v, want the two orphans", removed)
	}
	checkDocs(t, c, append(append([][]byte{}, docs...), []byte("lands past the orphans")), nil)
}

// A manifest naming an open segment whose data file is gone entirely
// (publish landed, file never became durable) must still open: the
// segment is materialized empty and appends resume.
func TestCrashOpenSegmentFileMissing(t *testing.T) {
	dir, _ := crashSetup(t, 5)
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, man.OpenSeg)); err != nil {
		t.Fatal(err)
	}
	dropWAL(t, dir)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen without data file: %v", err)
	}
	defer c.Close()
	if c.NumDocs() != 0 {
		t.Fatalf("NumDocs = %d, want 0", c.NumDocs())
	}
	if id, err := c.Append([]byte("revived")); err != nil || id != 0 {
		t.Fatalf("Append = (%d, %v)", id, err)
	}
}

// A durably published tombstone can name an append whose bytes died in
// OS buffers. Recovery must drop tombstones beyond the recovered doc
// count, or they would silently swallow the re-allocated ids.
func TestCrashStaleTombstoneClamped(t *testing.T) {
	docs := testDocs(5)
	c0, dir := newCollection(t, docs)
	path, at := frameStart(t, c0, 4)
	c0.Close()
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate: docs 4.. lost to the crash (truncate the segment to 4
	// frames) while tombstones for 3, 4 and 7 were durably published.
	man.Tombstones = []int{3, 4, 7}
	man.Generation++
	if err := WriteManifest(faultfs.OS, dir, man); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, at); err != nil {
		t.Fatal(err)
	}
	dropWAL(t, dir)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d, want 4", c.NumDocs())
	}
	// Tombstone 3 names a surviving document and must hold; 4 and 7
	// named lost ids and must be gone.
	if _, err := c.Get(3); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Get(3) = %v, want ErrDeleted", err)
	}
	if got := c.Info().Tombstones; got != 1 {
		t.Fatalf("tombstones = %d, want 1", got)
	}
	// The re-allocated id 4 serves its NEW document.
	id, err := c.Append([]byte("reborn four"))
	if err != nil || id != 4 {
		t.Fatalf("Append = (%d, %v), want (4, nil)", id, err)
	}
	got, err := c.Get(4)
	if err != nil || string(got) != "reborn four" {
		t.Fatalf("Get(4) = (%q, %v) — stale tombstone swallowed a live document", got, err)
	}
	// The clamp must be durable: appends alone never rewrite the
	// manifest, so the pruned set has to be on disk already — a second
	// crash right now must not resurrect tombstone 4 over the reborn
	// document.
	man2, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if len(man2.Tombstones) != 1 || man2.Tombstones[0] != 3 {
		t.Fatalf("on-disk tombstones after clamp = %v, want [3]", man2.Tombstones)
	}
	c.Close()
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err = c2.Get(4)
	if err != nil || string(got) != "reborn four" {
		t.Fatalf("Get(4) after second reopen = (%q, %v)", got, err)
	}
}

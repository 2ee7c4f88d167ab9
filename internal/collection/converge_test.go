package collection

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/faultfs"
)

// staleLayout compacts segs small segments against generation 1, each
// holding fewer documents than the one before (so convergence in another
// order would pick another segment), then grows generation 2 from a
// 1 MiB compaction. The collection ends with segs segments stale against
// generation 2; staleLayout returns every document appended.
func staleLayout(t *testing.T, c *Collection, segs int) [][]byte {
	t.Helper()
	var all [][]byte
	for i := 0; i < segs; i++ {
		docs := driftedDocs(0, 20-4*i)
		if res := compactOnce(t, c, len(all), docs, CompactOptions{}); res.Dict != 1 {
			t.Fatalf("small compaction %d: %+v, want generation 1", i, res)
		}
		all = append(all, docs...)
	}
	bulk := grownDocs(1, 64, 16<<10)
	res := compactOnce(t, c, len(all), bulk, CompactOptions{})
	if res.Dict != 2 || !res.Relearned || res.Upgraded != 0 {
		t.Fatalf("bulk compaction %+v, want generation 2 grown and nothing upgraded: staleness is judged as a compaction starts", res)
	}
	return append(all, bulk...)
}

// segmentDicts returns the dictionary id of every segment the on-disk
// manifest lists, and their manifest Raw bytes.
func segmentDicts(t *testing.T, dir string) (dicts []uint64, raws []int64) {
	t.Helper()
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range man.Segments {
		dicts = append(dicts, s.Dict)
		raws = append(raws, s.Raw)
	}
	return dicts, raws
}

// manifestDictIDs returns the dictionary generations the on-disk
// manifest lists.
func manifestDictIDs(t *testing.T, dir string) []uint64 {
	t.Helper()
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, d := range man.Dicts {
		ids = append(ids, d.ID)
	}
	return ids
}

// TestCompactionConvergesStaleSegments (a): after growth adopts
// generation 2, a compaction whose raw bytes cover the stale segments'
// re-encodes every generation-1 segment against generation 2, retires
// dict-00000001 from the disk and the manifest in the same publish, keeps
// at most one prepared dictionary, and every id reads as before —
// tombstoned ones included — also after a reopen.
func TestCompactionConvergesStaleSegments(t *testing.T) {
	c, dir := newCollection(t, nil)
	all := staleLayout(t, c, 3)
	deleted := map[int]bool{3: true, 25: true, 60: true} // the first and second stale segments, the bulk
	for id := range deleted {
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	dicts, raws := segmentDicts(t, dir)
	if !slices.Equal(dicts, []uint64{1, 1, 1, 2}) {
		t.Fatalf("segment generations before convergence %v", dicts)
	}
	staleBytes := raws[0] + raws[1] + raws[2]

	fresh := grownDocs(2, 1, int(staleBytes))
	res := compactOnce(t, c, len(all), fresh, CompactOptions{})
	all = append(all, fresh...)
	if res.Upgraded != 3 || res.BytesUpgraded != staleBytes || res.Compacted != 4 || res.Dict != 2 || res.Relearned {
		t.Fatalf("converging compaction %+v, want the 3 generation-1 segments (%d bytes) and the raw one against generation 2", res, staleBytes)
	}
	if len(res.NewSegments) != 2 {
		t.Fatalf("new segments %v, want the stale run and the raw run", res.NewSegments)
	}
	if dicts, _ := segmentDicts(t, dir); !slices.Equal(dicts, []uint64{2, 2, 2}) {
		t.Fatalf("segment generations after convergence %v, want all on generation 2", dicts)
	}
	if got := manifestDictIDs(t, dir); !slices.Equal(got, []uint64{2}) {
		t.Fatalf("manifest dictionaries %v, want only generation 2", got)
	}
	if got := dictFiles(t, dir); !slices.Equal(got, []string{dictFileName(2)}) {
		t.Fatalf("dictionary files %v, want only %s", got, dictFileName(2))
	}
	if n := c.preparedDictCount(); n > 1 {
		t.Fatalf("%d prepared dictionaries, want at most the newest", n)
	}
	checkDocs(t, c, all, deleted)

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	checkDocs(t, c2, all, deleted)
}

// TestConvergenceCapOldestFirst (b): a compaction re-encodes stale
// segments oldest generation first, then in id order, whole ones only,
// while their bytes fit in the raw bytes it drains — one byte short of
// the oldest converges nothing, exactly its size converges it alone —
// and later compactions finish the job, retiring generation 1 with its
// last segment.
func TestConvergenceCapOldestFirst(t *testing.T) {
	c, dir := newCollection(t, nil)
	all := staleLayout(t, c, 3)
	_, raws := segmentDicts(t, dir)
	round := func(rawBytes int64, opts CompactOptions, dict uint64, upgraded int, wantDicts []uint64) {
		t.Helper()
		docs := grownDocs(2, 1, int(rawBytes))
		res := compactOnce(t, c, len(all), docs, opts)
		all = append(all, docs...)
		if res.Upgraded != upgraded || res.Dict != dict {
			t.Fatalf("compaction draining %d raw bytes: %+v, want %d segments upgraded to generation %d", rawBytes, res, upgraded, dict)
		}
		if dicts, _ := segmentDicts(t, dir); !slices.Equal(dicts, wantDicts) {
			t.Fatalf("compaction draining %d raw bytes: segment generations %v, want %v", rawBytes, dicts, wantDicts)
		}
	}
	round(raws[0]-1, CompactOptions{}, 2, 0, []uint64{1, 1, 1, 2, 2})
	round(raws[0], CompactOptions{}, 2, 1, []uint64{2, 1, 1, 2, 2, 2})
	// An explicit dictionary becomes generation 3 and converges nothing
	// (one raw byte covers no segment); it holds over half the 4 KiB
	// floor budget, so the next compactions do not grow. Segment 0
	// (generation 2) now precedes segment 1 (generation 1) in id order
	// but not in age, and is too large for the next compaction's cap:
	// the oldest generation goes first.
	explicit := bytes.Join(driftedDocs(2, 12), nil)
	round(1, CompactOptions{Dict: explicit}, 3, 0, []uint64{2, 1, 1, 2, 2, 2, 3})
	round(raws[1], CompactOptions{}, 3, 1, []uint64{2, 3, 1, 2, 2, 2, 3, 3})
	if got := manifestDictIDs(t, dir); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("manifest dictionaries %v, want generation 1 kept for its last segment", got)
	}
	round(raws[2], CompactOptions{}, 3, 1, []uint64{2, 3, 3, 2, 2, 2, 3, 3, 3})
	if got := dictFiles(t, dir); !slices.Equal(got, []string{dictFileName(2), dictFileName(3)}) {
		t.Fatalf("dictionary files %v, want generation 1's retired", got)
	}
	checkDocs(t, c, all, nil)
}

// TestConvergenceNeedsRawOrUpgradeStale (c): with nothing raw to drain
// a compaction leaves stale segments alone; UpgradeStale takes every one
// of them, whatever the raw bytes beside them.
func TestConvergenceNeedsRawOrUpgradeStale(t *testing.T) {
	c, dir := newCollection(t, nil)
	all := staleLayout(t, c, 2)
	if res, err := c.Compact(CompactOptions{}); err != nil || res.Compacted != 0 {
		t.Fatalf("compaction with nothing raw: %+v, %v, want nothing done", res, err)
	}
	if got := dictFiles(t, dir); len(got) != 2 {
		t.Fatalf("dictionary files %v, want both generations", got)
	}
	one := [][]byte{[]byte("x")}
	res := compactOnce(t, c, len(all), one, CompactOptions{UpgradeStale: true})
	all = append(all, one...)
	if res.Upgraded != 2 || res.Compacted != 3 || res.Dict != 2 {
		t.Fatalf("UpgradeStale compaction %+v, want both stale segments and the raw one", res)
	}
	if got := dictFiles(t, dir); !slices.Equal(got, []string{dictFileName(2)}) {
		t.Fatalf("dictionary files %v, want only %s", got, dictFileName(2))
	}
	checkDocs(t, c, all, nil)
}

// TestConvergenceKilledBeforePublish (d): a power cut after the
// converging compaction renamed its re-encoded segments into place but
// before the manifest that names them: recovery serves generation 1's
// segment as before, gc removes the orphans, and the retry converges.
func TestConvergenceKilledBeforePublish(t *testing.T) {
	sim := faultfs.NewSim()
	c, dir := faultOpen(t, sim, Options{})
	all := staleLayout(t, c, 1)
	_, raws := segmentDicts(t, dir)
	fresh := grownDocs(2, 1, int(raws[0]))
	appendAll(t, c, len(all), fresh)
	all = append(all, fresh...)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	sim.SetScript(faultfs.Fault{Op: faultfs.OpRename, Path: ManifestName, Kill: true})
	if _, err := c.Compact(CompactOptions{}); err == nil {
		t.Fatal("compaction succeeded across a kill at its manifest publish")
	}
	_ = c.Close()
	if err := sim.Crash(sim.JournalLen()); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer c2.Close()
	checkDocs(t, c2, all, nil)
	if dicts, _ := segmentDicts(t, dir); !slices.Equal(dicts, []uint64{1, 2, 0}) {
		t.Fatalf("recovered segment generations %v, want generation 1 still serving its segment", dicts)
	}
	removed, err := c2.GC()
	if err != nil {
		t.Fatal(err)
	}
	orphans := 0
	for _, name := range removed {
		if strings.HasPrefix(name, "seg-") && !strings.HasSuffix(name, ".tmp") {
			orphans++
		}
	}
	if orphans != 2 {
		t.Fatalf("gc removed %v, want the re-encoded segment and the raw run's", removed)
	}

	res, err := c2.Compact(CompactOptions{})
	if err != nil {
		t.Fatalf("retried compaction: %v", err)
	}
	if res.Upgraded != 1 || res.Dict != 2 {
		t.Fatalf("retried compaction %+v, want generation 1's segment converged", res)
	}
	if got := manifestDictIDs(t, dir); !slices.Equal(got, []uint64{2}) {
		t.Fatalf("manifest dictionaries %v, want only generation 2", got)
	}
	if _, err := os.Stat(filepath.Join(dir, dictFileName(1))); !os.IsNotExist(err) {
		t.Fatalf("%s after the retry: %v, want it removed", dictFileName(1), err)
	}
	checkDocs(t, c2, all, nil)
}

// TestDrainedBytesMatchesDecoded: the byte count a compaction sizes its
// dictionary budget and even sample by, taken from the manifest's Raw
// less the documents tombstoned since each segment was built, equals
// the bytes of the live documents decoded one by one — over a stale RLZ
// segment and a raw one, each holding tombstones from before and after
// its build, and on the fallback path a Raw of 0 takes.
func TestDrainedBytesMatchesDecoded(t *testing.T) {
	c, _ := newCollection(t, nil)
	docs := driftedDocs(0, 20)
	appendAll(t, c, 0, docs)
	if err := c.Delete(4); err != nil { // tombstoned before the stale segment's build
		t.Fatal(err)
	}
	all := append(docs, grownDocs(1, 64, 16<<10)...)
	compactOnce(t, c, len(docs), nil, CompactOptions{})
	compactOnce(t, c, len(docs), all[len(docs):], CompactOptions{})
	more := driftedDocs(2, 10)
	appendAll(t, c, len(all), more)
	all = append(all, more...)
	for _, id := range []int{7, len(all) - 3} { // since the stale segment's build; in the raw one
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}

	c.mu.Lock()
	v := c.view.Load()
	seq := c.man.NextSeq
	runs := findRuns(v, c.man, &seq, true)
	tomb := v.set.Tombstones()
	c.mu.Unlock()
	if len(runs) != 2 || runs[0].stale != 1 || runs[1].stale != 0 {
		t.Fatalf("runs %+v, want the stale segment's and the raw one's", runs)
	}
	var want int64
	var buf []byte
	if err := eachDoc(runs, tomb, func(sr archive.Reader, local int) error {
		var err error
		buf, err = sr.GetAppend(buf[:0], local)
		want += int64(len(buf))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := drainedBytes(runs, tomb)
	if err != nil || got != want {
		t.Fatalf("drainedBytes = %d, %v; decoded live documents hold %d", got, err, want)
	}
	for i := range runs {
		runs[i].raws = make([]int64, len(runs[i].raws))
	}
	if got, err := drainedBytes(runs, tomb); err != nil || got != want {
		t.Fatalf("drainedBytes without Raw = %d, %v; decoded live documents hold %d", got, err, want)
	}
}

package collection

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// grownDocs builds n documents of size bytes each from phase's drifted
// vocabulary: the bulk of a compaction that outgrows an earlier, smaller
// one's dictionary.
func grownDocs(phase, n, size int) [][]byte {
	docs := driftedDocs(phase, n)
	for i, d := range docs {
		docs[i] = bytes.Repeat(d, size/len(d)+1)[:size]
	}
	return docs
}

// dictFileSize returns the size of dictionary generation id's file.
func dictFileSize(t *testing.T, dir string, id uint64) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, dictFileName(id)))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// dictFiles lists the dict- files in dir.
func dictFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "dict-") {
			names = append(names, e.Name())
		}
	}
	return names
}

// compactOnce appends docs after base and compacts with opts.
func compactOnce(t *testing.T, c *Collection, base int, docs [][]byte, opts CompactOptions) CompactResult {
	t.Helper()
	appendAll(t, c, base, docs)
	res, err := c.Compact(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCompactionGrowsDictionary: a small first compaction samples a
// small generation 1; a compaction over 200× its bytes finds generation 1
// under half its budget and samples a generation at least twice the size,
// leaving generation 1's segment alone (it was not stale when that
// compaction started). Every earlier document still reads byte-identical,
// and the next compaction, draining as many raw bytes as generation 1's
// segment holds, converges that segment and deletes generation 1's file
// without growing again.
func TestCompactionGrowsDictionary(t *testing.T) {
	small := driftedDocs(0, 20)
	bulk := grownDocs(1, 64, 16<<10) // 1 MiB, ≥ 200× the first compaction
	c, dir := newCollection(t, nil)
	if res := compactOnce(t, c, 0, small, CompactOptions{}); res.Dict != 1 || !res.Relearned {
		t.Fatalf("first compaction %+v, want generation 1", res)
	}
	res := compactOnce(t, c, len(small), bulk, CompactOptions{})
	if res.Dict != 2 || !res.Relearned || res.Upgraded != 0 {
		t.Fatalf("bulk compaction %+v, want a grown generation 2 and nothing upgraded", res)
	}
	g1, g2 := dictFileSize(t, dir, 1), dictFileSize(t, dir, 2)
	if g2 < 2*g1 {
		t.Fatalf("grown generation holds %d bytes, want at least twice generation 1's %d", g2, g1)
	}
	if n := c.preparedDictCount(); n != 1 {
		t.Fatalf("%d prepared dictionaries after growth, want only the newest", n)
	}
	all := append(append([][]byte{}, small...), bulk...)
	checkDocs(t, c, all, nil)

	var smallBytes int
	for _, d := range small {
		smallBytes += len(d)
	}
	fresh := grownDocs(2, 1, smallBytes)
	up := compactOnce(t, c, len(all), fresh, CompactOptions{})
	if up.Upgraded != 1 || up.Compacted != 2 || up.Relearned || up.Dict != 2 {
		t.Fatalf("next compaction %+v, want generation 1's segment rebuilt against generation 2 beside the raw one", up)
	}
	if got := dictFiles(t, dir); len(got) != 1 || got[0] != dictFileName(2) {
		t.Fatalf("dictionary files after convergence: %v, want only %s", got, dictFileName(2))
	}
	checkDocs(t, c, append(all, fresh...), nil)
}

// TestEqualCompactionsKeepOneDictionary: k compactions of equal size
// never re-sample — the factor-of-two hysteresis — so a collection
// compacted in equal rounds keeps exactly one dict- file.
func TestEqualCompactionsKeepOneDictionary(t *testing.T) {
	c, dir := newCollection(t, nil)
	var all [][]byte
	for round := 0; round < 4; round++ {
		docs := grownDocs(round, 16, 16<<10)
		res := compactOnce(t, c, len(all), docs, CompactOptions{})
		all = append(all, docs...)
		if res.Dict != 1 || res.Relearned != (round == 0) {
			t.Fatalf("round %d: %+v, want generation 1 sampled once and reused", round, res)
		}
		if got := dictFiles(t, dir); len(got) != 1 {
			t.Fatalf("round %d: dictionary files %v, want exactly one", round, got)
		}
	}
	checkDocs(t, c, all, nil)
}

// TestExplicitDictSizeIsTheBudget: with DictSize set, growth compares the
// newest generation against it rather than against 1% of the drained
// bytes — no growth while the generation holds more than half of it,
// growth once it holds less.
func TestExplicitDictSizeIsTheBudget(t *testing.T) {
	const size = 8 << 10
	c, dir := newCollection(t, nil)
	var all [][]byte
	round := func(opts CompactOptions) CompactResult {
		docs := grownDocs(len(all), 16, 16<<10)
		res := compactOnce(t, c, len(all), docs, opts)
		all = append(all, docs...)
		return res
	}
	if res := round(CompactOptions{DictSize: size}); res.Dict != 1 {
		t.Fatalf("first compaction %+v, want generation 1", res)
	}
	if got := dictFileSize(t, dir, 1); got != size {
		t.Fatalf("generation 1 holds %d bytes, want DictSize %d", got, size)
	}
	if res := round(CompactOptions{DictSize: size * 3 / 2}); res.Relearned || res.Dict != 1 {
		t.Fatalf("compaction at 1.5× the generation's size: %+v, want generation 1 reused", res)
	}
	if res := round(CompactOptions{DictSize: 3 * size}); !res.Relearned || res.Dict != 2 {
		t.Fatalf("compaction at 3× the generation's size: %+v, want a grown generation 2", res)
	}
	if got := dictFileSize(t, dir, 2); got != 3*size {
		t.Fatalf("generation 2 holds %d bytes, want DictSize %d", got, 3*size)
	}
	checkDocs(t, c, all, nil)
}

// TestGrowthPrecedesAdapt: when a compaction both may adapt and must
// grow, it grows. An adaptive candidate keeps the current dictionary's
// size, so a generation twice the size shows that the fresh sample, not
// the trial, decided.
func TestGrowthPrecedesAdapt(t *testing.T) {
	c, dir := newCollection(t, nil)
	small := driftedDocs(0, 20)
	compactOnce(t, c, 0, small, CompactOptions{})
	if c.heatFor(1, int(dictFileSize(t, dir, 1))).Copies() == 0 {
		t.Fatal("generation 1 observed no usage; the adaptive trial would not run anyway")
	}
	bulk := grownDocs(1, 64, 16<<10)
	res := compactOnce(t, c, len(small), bulk, CompactOptions{Adapt: true, MinRatioGain: -1000})
	if !res.Relearned || res.Dict != 2 {
		t.Fatalf("compaction %+v, want generation 2", res)
	}
	if g1, g2 := dictFileSize(t, dir, 1), dictFileSize(t, dir, 2); g2 < 2*g1 {
		t.Fatalf("generation 2 holds %d bytes against generation 1's %d: adapted, not grown", g2, g1)
	}
	checkDocs(t, c, append(small, bulk...), nil)
}

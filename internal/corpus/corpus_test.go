package corpus

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Gov, 1<<20, 42)
	b := Generate(Gov, 1<<20, 42)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Docs {
		if a.Docs[i].URL != b.Docs[i].URL || !bytes.Equal(a.Docs[i].Body, b.Docs[i].Body) {
			t.Fatalf("document %d differs between runs", i)
		}
	}
	c := Generate(Gov, 1<<20, 43)
	if c.Len() == a.Len() && bytes.Equal(c.Docs[0].Body, a.Docs[0].Body) {
		t.Error("different seeds produced identical collections")
	}
}

func TestGenerateSizeTarget(t *testing.T) {
	for _, target := range []int{1 << 18, 1 << 20, 4 << 20} {
		c := Generate(Gov, target, 1)
		got := int(c.TotalSize())
		if got < target || got > target+2*Gov.AvgDocSize*Gov.NumSites {
			t.Errorf("target %d: generated %d bytes", target, got)
		}
	}
}

func TestProfilesDiffer(t *testing.T) {
	g := Generate(Gov, 1<<20, 1)
	w := Generate(Wiki, 1<<20, 1)
	if g.AvgDocSize() >= w.AvgDocSize() {
		t.Errorf("gov avg doc %f should be smaller than wiki %f", g.AvgDocSize(), w.AvgDocSize())
	}
}

func TestDocumentsLookLikeWebPages(t *testing.T) {
	c := Generate(Gov, 1<<19, 2)
	for i, d := range c.Docs[:10] {
		body := string(d.Body)
		for _, frag := range []string{"<!DOCTYPE html>", "<body>", "</html>", "<div id=\"content\">"} {
			if !strings.Contains(body, frag) {
				t.Errorf("doc %d missing %q", i, frag)
			}
		}
		if !strings.HasPrefix(d.URL, "http://www.") {
			t.Errorf("doc %d URL = %q", i, d.URL)
		}
	}
}

func TestCrawlOrderInterleavesSites(t *testing.T) {
	c := Generate(Gov, 2<<20, 3)
	host := func(u string) string {
		rest := strings.TrimPrefix(u, "http://")
		return rest[:strings.IndexByte(rest, '/')]
	}
	// In crawl order, consecutive documents should come from different
	// hosts almost always (round-robin frontier).
	same := 0
	for i := 1; i < c.Len(); i++ {
		if host(c.Docs[i].URL) == host(c.Docs[i-1].URL) {
			same++
		}
	}
	if same > c.Len()/10 {
		t.Errorf("%d/%d consecutive same-host pairs in crawl order", same, c.Len())
	}
}

func TestSortByURLGroupsSites(t *testing.T) {
	c := Generate(Gov, 2<<20, 3)
	c.SortByURL()
	urls := make([]string, c.Len())
	for i, d := range c.Docs {
		urls[i] = d.URL
	}
	if !sort.StringsAreSorted(urls) {
		t.Fatal("not URL-sorted")
	}
}

func TestSortPreservesMultisetOfDocs(t *testing.T) {
	c := Generate(Gov, 1<<20, 4)
	orig := &Collection{Docs: slices.Clone(c.Docs)}
	c.SortByURL()
	if c.TotalSize() != orig.TotalSize() || c.Len() != orig.Len() {
		t.Fatal("sort changed the collection contents")
	}
	seen := map[string]int{}
	for _, d := range orig.Docs {
		seen[d.URL]++
	}
	for _, d := range c.Docs {
		seen[d.URL]--
	}
	for u, n := range seen {
		if n != 0 {
			t.Fatalf("URL %q count off by %d after sort", u, n)
		}
	}
}

func TestMirrorsExist(t *testing.T) {
	c := Generate(Gov, 4<<20, 5)
	// Find two documents with identical bodies but different URLs.
	byHash := map[string][]int{}
	for i, d := range c.Docs {
		byHash[string(d.Body)] = append(byHash[string(d.Body)], i)
	}
	found := false
	for _, ids := range byHash {
		if len(ids) >= 2 && c.Docs[ids[0]].URL != c.Docs[ids[1]].URL {
			found = true
			break
		}
	}
	if !found {
		t.Error("no mirrored content found in gov profile")
	}
}

func TestGlobalRedundancyAcrossCollection(t *testing.T) {
	// A substring from an early document's site template must reappear
	// much later in the collection (the same site's later pages) — the
	// non-local redundancy RLZ exploits.
	c := Generate(Gov, 2<<20, 6)
	first := c.Docs[0].Body
	probe := first[bytes.Index(first, []byte("<div id=\"banner\">")) : bytes.Index(first, []byte("<div id=\"banner\">"))+60]
	lastThird := c.Docs[2*c.Len()/3:]
	found := false
	for _, d := range lastThird {
		if bytes.Contains(d.Body, probe) {
			found = true
			break
		}
	}
	if !found {
		t.Error("site template from document 0 never recurs in the final third of the crawl")
	}
}

func TestBytesConcatenation(t *testing.T) {
	c := Generate(Gov, 1<<18, 7)
	all := c.Bytes()
	if int64(len(all)) != c.TotalSize() {
		t.Fatalf("Bytes length %d != TotalSize %d", len(all), c.TotalSize())
	}
	if !bytes.HasPrefix(all, c.Docs[0].Body) {
		t.Error("concatenation does not start with document 0")
	}
	last := c.Docs[c.Len()-1].Body
	if !bytes.HasSuffix(all, last) {
		t.Error("concatenation does not end with the last document")
	}
}

func TestAvgDocSizeEmptyCollection(t *testing.T) {
	var c Collection
	if c.AvgDocSize() != 0 {
		t.Error("empty collection average should be 0")
	}
}

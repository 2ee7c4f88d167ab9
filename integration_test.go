package bench

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/corpus"
	"rlz/internal/rlz"
	"rlz/internal/store"
	"rlz/internal/warc"
	"rlz/internal/workload"
)

// End-to-end pipeline tests: every subsystem composed the way a real
// deployment would use them.

// TestPipelineCrawlToArchive runs generate -> warc -> RLZ archive ->
// random access, verifying bytes at every stage.
func TestPipelineCrawlToArchive(t *testing.T) {
	coll := corpus.Generate(corpus.Gov, 2<<20, 77)

	// Serialize and re-load the collection through the warc container.
	path := filepath.Join(t.TempDir(), "crawl.warc")
	if err := warc.WriteFile(path, coll.Records()); err != nil {
		t.Fatal(err)
	}
	src, err := archive.FromWARC(path)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := &corpus.Collection{}
	for {
		doc, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		reloaded.Docs = append(reloaded.Docs, corpus.Document{URL: doc.Name, Body: doc.Body})
	}
	if reloaded.Len() != coll.Len() || reloaded.TotalSize() != coll.TotalSize() {
		t.Fatalf("warc round trip changed the collection: %d/%d docs, %d/%d bytes",
			reloaded.Len(), coll.Len(), reloaded.TotalSize(), coll.TotalSize())
	}

	// Archive with a 1% dictionary, then verify every document.
	dict := rlz.SampleEven(reloaded.Bytes(), int(reloaded.TotalSize())/100, 1<<10)
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, dict, rlz.CodecZV)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range reloaded.Docs {
		if _, err := w.Append(d.Body); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range coll.Docs {
		got, err := r.Get(i)
		if err != nil || !bytes.Equal(got, d.Body) {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
	if int64(buf.Len()) > coll.TotalSize()/3 {
		t.Errorf("archive %d bytes for %d raw; expected strong compression", buf.Len(), coll.TotalSize())
	}
}

// TestPipelineParallelEqualsSequential checks the archive layer's
// parallel builder against the backend's sequential writer on a full
// synthetic crawl.
func TestPipelineParallelEqualsSequential(t *testing.T) {
	coll := corpus.Generate(corpus.Wiki, 1<<20, 78)
	docs := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		docs[i] = d.Body
	}
	dict := rlz.SampleEven(coll.Bytes(), 32<<10, 512)

	var seq bytes.Buffer
	w, err := store.NewWriter(&seq, dict, rlz.CodecZZ)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := w.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var par bytes.Buffer
	opts := archive.Options{Backend: archive.RLZ, Dict: dict, Codec: rlz.CodecZZ, Workers: 8}
	if _, err := archive.Build(&par, archive.FromBodies(docs), opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatal("parallel archive differs from sequential")
	}
}

// TestPipelineSearchAndSnippets exercises grep + range decoding over a
// compressed crawl, cross-checking against the plaintext.
func TestPipelineSearchAndSnippets(t *testing.T) {
	coll := corpus.Generate(corpus.Gov, 1<<20, 79)
	dict := rlz.SampleEven(coll.Bytes(), 16<<10, 512)
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, dict, rlz.CodecUV)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range coll.Docs {
		if _, err := w.Append(d.Body); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	arc, err := archive.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r := archive.NewSet(archive.RLZ, []archive.Reader{arc}, nil)

	pattern := []byte("<div id=\"footer\">")
	matches, err := r.FindAll(pattern, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The footer template appears in every generated page.
	if len(matches) < coll.Len() {
		t.Fatalf("found %d matches in %d docs", len(matches), coll.Len())
	}
	// Every reported match must actually be there, and the range decode
	// around it must agree with the plaintext.
	for _, m := range matches[:50] {
		want := coll.Docs[m.Doc].Body
		if !bytes.HasPrefix(want[m.Offset:], pattern) {
			t.Fatalf("match %v does not point at the pattern", m)
		}
		window, err := r.GetRange(m.Doc, m.Offset, m.Offset+len(pattern))
		if err != nil || !bytes.Equal(window, pattern) {
			t.Fatalf("GetRange around %v = %q, %v", m, window, err)
		}
	}
}

// TestPipelineRetrievalBeatsBaseline replays the paper's headline
// comparison end to end at test scale: same documents, same query-log,
// RLZ must beat the 256 KB-blocked zlib baseline on decode CPU while
// compressing at least comparably.
func TestPipelineRetrievalBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("scale comparison")
	}
	coll := corpus.Generate(corpus.Gov, 4<<20, 80)
	raw := coll.TotalSize()
	docs := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		docs[i] = d.Body
	}

	dict := rlz.SampleEven(coll.Bytes(), int(raw)/50, 1<<10)
	var rlzBuf bytes.Buffer
	if _, err := archive.Build(&rlzBuf, archive.FromBodies(docs),
		archive.Options{Backend: archive.RLZ, Dict: dict, Codec: rlz.CodecZV}); err != nil {
		t.Fatal(err)
	}
	var blkBuf bytes.Buffer
	if _, err := archive.Build(&blkBuf, archive.FromBodies(docs),
		archive.Options{Backend: archive.Block, BlockSize: 256 << 10}); err != nil {
		t.Fatal(err)
	}

	rr, err := archive.OpenBytes(rlzBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	br, err := archive.OpenBytes(blkBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ids := workload.QueryLog(coll.Len(), 500, 81)

	time := func(get func([]byte, int) ([]byte, error)) int64 {
		var buf []byte
		var total int64
		for _, id := range ids {
			var err error
			buf, err = get(buf[:0], id)
			if err != nil {
				t.Fatal(err)
			}
			total += int64(len(buf))
		}
		return total
	}
	// Warm both paths once so allocator effects don't dominate, then
	// compare bytes decoded per benchmarked pass using testing.Benchmark.
	time(rr.GetAppend)
	time(br.GetAppend)
	rlzRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			time(rr.GetAppend)
		}
	})
	blkRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			time(br.GetAppend)
		}
	})
	rlzNs := rlzRes.NsPerOp()
	blkNs := blkRes.NsPerOp()
	if rlzNs*2 > blkNs {
		t.Errorf("RLZ random access (%d ns) not clearly faster than blocked zlib (%d ns)", rlzNs, blkNs)
	}
}

package archive

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rlz/internal/blockstore"
	"rlz/internal/rawstore"
	"rlz/internal/rlz"
	"rlz/internal/store"
)

// makeDocs builds web-like documents sharing boilerplate so RLZ has
// structure to exploit.
func makeDocs(n int, seed int64) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf(
			"<html><head><title>page %d-%d</title></head><body>"+
				"<div class=\"nav\">home | about | contact</div>"+
				"<p>document %d body text with shared boilerplate and a unique token u%d-%d</p>"+
				"<div id=\"footer\">copyright</div></body></html>",
			seed, i, i, seed, i*i))
	}
	return docs
}

func dictFor(docs [][]byte) []byte {
	var collection []byte
	for _, d := range docs {
		collection = append(collection, d...)
	}
	return rlz.SampleEven(collection, len(collection)/4+1, 128)
}

// optionsFor returns one buildable Options per backend.
func optionsFor(t *testing.T, docs [][]byte) map[Backend]Options {
	t.Helper()
	return map[Backend]Options{
		RLZ:   {Backend: RLZ, Dict: dictFor(docs), Codec: rlz.CodecZV},
		Block: {Backend: Block, BlockSize: 512},
		Raw:   {Backend: Raw},
	}
}

// TestOpenAutoDetectsEveryBackend is the acceptance-criteria core: build
// with each backend, Open without saying which, read everything back.
func TestOpenAutoDetectsEveryBackend(t *testing.T) {
	docs := makeDocs(40, 1)
	for backend, opts := range optionsFor(t, docs) {
		var buf bytes.Buffer
		res, err := Build(&buf, FromBodies(docs), opts)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Docs != len(docs) {
			t.Fatalf("%s: built %d docs, want %d", backend, res.Docs, len(docs))
		}
		r, err := OpenBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: open: %v", backend, err)
		}
		st := r.Stats()
		if st.Backend != backend {
			t.Fatalf("detected backend %s, want %s", st.Backend, backend)
		}
		if st.NumDocs != len(docs) || r.NumDocs() != len(docs) {
			t.Fatalf("%s: NumDocs = %d/%d, want %d", backend, st.NumDocs, r.NumDocs(), len(docs))
		}
		if st.Size != int64(buf.Len()) {
			t.Fatalf("%s: Stats().Size = %d, want %d", backend, st.Size, buf.Len())
		}
		var dst []byte
		for i, want := range docs {
			dst, err = r.GetAppend(dst[:0], i)
			if err != nil || !bytes.Equal(dst, want) {
				t.Fatalf("%s: Get(%d) = %q, %v", backend, i, dst, err)
			}
			if off, n, err := r.Extent(i); err != nil || n <= 0 || off <= 0 {
				t.Fatalf("%s: Extent(%d) = %d,%d,%v", backend, i, off, n, err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%s: close: %v", backend, err)
		}
	}
}

// TestFormatsIdenticalToDirectWriters pins the on-disk compatibility
// guarantee: going through the archive layer produces the exact bytes the
// backend packages' own writers produce.
func TestFormatsIdenticalToDirectWriters(t *testing.T) {
	docs := makeDocs(30, 2)
	dict := dictFor(docs)

	var direct bytes.Buffer
	sw, err := store.NewWriter(&direct, dict, rlz.CodecUV)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := sw.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	var via bytes.Buffer
	if _, err := Build(&via, FromBodies(docs), Options{Backend: RLZ, Dict: dict, Codec: rlz.CodecUV}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), via.Bytes()) {
		t.Errorf("rlz: archive layer changed the format (%d vs %d bytes)", via.Len(), direct.Len())
	}

	direct.Reset()
	bw, err := blockstore.NewWriter(&direct, blockstore.Options{BlockSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := bw.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	via.Reset()
	if _, err := Build(&via, FromBodies(docs), Options{Backend: Block, BlockSize: 300}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), via.Bytes()) {
		t.Errorf("block: archive layer changed the format (%d vs %d bytes)", via.Len(), direct.Len())
	}

	direct.Reset()
	rw, err := rawstore.NewWriter(&direct)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := rw.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	via.Reset()
	if _, err := Build(&via, FromBodies(docs), Options{Backend: Raw}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), via.Bytes()) {
		t.Errorf("raw: archive layer changed the format (%d vs %d bytes)", via.Len(), direct.Len())
	}
}

// TestBuildParallelDeterministic: any worker count produces identical
// bytes, for every backend.
func TestBuildParallelDeterministic(t *testing.T) {
	docs := makeDocs(120, 3)
	for backend, opts := range optionsFor(t, docs) {
		opts.Workers = 1
		var seq bytes.Buffer
		if _, err := Build(&seq, FromBodies(docs), opts); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for _, workers := range []int{2, 7, 0} {
			opts.Workers = workers
			var par bytes.Buffer
			if _, err := Build(&par, FromBodies(docs), opts); err != nil {
				t.Fatalf("%s workers=%d: %v", backend, workers, err)
			}
			if !bytes.Equal(seq.Bytes(), par.Bytes()) {
				t.Fatalf("%s workers=%d: parallel archive differs from sequential (%d vs %d bytes)",
					backend, workers, par.Len(), seq.Len())
			}
		}
	}
}

func TestBuildEmptySource(t *testing.T) {
	for backend, opts := range optionsFor(t, makeDocs(4, 4)) {
		var buf bytes.Buffer
		res, err := Build(&buf, FromBodies(nil), opts)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Docs != 0 {
			t.Fatalf("%s: %d docs from empty source", backend, res.Docs)
		}
		r, err := OpenBytes(buf.Bytes())
		if err != nil || r.NumDocs() != 0 {
			t.Fatalf("%s: empty archive: %v, %d docs", backend, err, r.NumDocs())
		}
	}
}

type failAfterWriter struct {
	n    int
	seen int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	f.seen += len(p)
	if f.seen > f.n {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

func TestBuildPropagatesWriteError(t *testing.T) {
	docs := makeDocs(60, 5)
	for backend, opts := range optionsFor(t, docs) {
		for _, workers := range []int{1, 4} {
			opts.Workers = workers
			if _, err := Build(&failAfterWriter{n: 2048}, FromBodies(docs), opts); err == nil {
				t.Errorf("%s workers=%d: write error swallowed", backend, workers)
			}
		}
	}
}

func TestOpenFileRoundTrip(t *testing.T) {
	docs := makeDocs(10, 6)
	for backend, opts := range optionsFor(t, docs) {
		path := filepath.Join(t.TempDir(), "arc")
		if _, err := Create(path, FromBodies(docs), opts); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		got, err := r.Get(7)
		if err != nil || !bytes.Equal(got, docs[7]) {
			t.Fatalf("%s: Get(7): %v", backend, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%s: close: %v", backend, err)
		}
	}
}

// Version 1 of the raw format (documents back to back, no frames) is what
// every raw archive and sealed raw segment written before version 2 holds;
// it stays readable. The bytes are written out by hand: no writer
// produces them any more.
func TestOpenReadsRawVersion1(t *testing.T) {
	v1 := []byte("RAWS\x01" + "hello" + "world!")
	v1 = append(v1, 3, 5, 0, 6)              // docmap: three documents of 5, 0 and 6 bytes
	v1 = append(v1, 16, 0, 0, 0, 0, 0, 0, 0) // docmap offset
	v1 = append(v1, "RAWE"...)
	path := filepath.Join(t.TempDir(), "v1.raw")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Backend != Raw || st.NumDocs != 3 {
		t.Fatalf("Stats = %+v", st)
	}
	for i, want := range []string{"hello", "", "world!"} {
		if got, err := r.Get(i); err != nil || string(got) != want {
			t.Fatalf("Get(%d) = (%q, %v), want %q", i, got, err, want)
		}
	}
	if off, n, err := r.Extent(2); err != nil || off != 10 || n != 6 {
		t.Fatalf("Extent(2) = (%d, %d, %v), want (10, 6, nil)", off, n, err)
	}
}

func TestCreateRemovesPartialFileOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arc")
	_, err := Create(path, FromFiles([]string{"/nonexistent/doc"}), Options{Backend: Raw})
	if err == nil {
		t.Fatal("missing input accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("partial archive left behind: %v", err)
	}
}

// TestSearchIsTheSetsOneScan: no single-file backend searches itself —
// a one-member Set over any of them is the search, and it returns what a
// brute-force pass over Get computes. GetRange windows are cut from the
// decoded document for block and raw; an RLZ member keeps its own
// partial decode, also behind the file-owning wrapper Open returns.
func TestSearchIsTheSetsOneScan(t *testing.T) {
	docs := makeDocs(12, 7)
	// One in every document, one in a single document, an absent one, one
	// that overlaps itself ("aa" in "aaaa": three matches), and one whose
	// occurrences run from shared boilerplate into a document's own token,
	// across the factor boundary an RLZ record has there.
	docs[5] = append(docs[5], "aaaa"...)
	patterns := []string{"<div id=\"footer\">", "u7-49", "no such text", "aa", "token u7-1"}
	for backend, opts := range optionsFor(t, docs) {
		var buf bytes.Buffer
		if _, err := Build(&buf, FromBodies(docs), opts); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "arc")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		mem, err := OpenBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		file, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for how, r := range map[string]Reader{"OpenBytes": mem, "Open": file} {
			if _, ok := As[Searcher](r); ok {
				t.Errorf("%s via %s: a bare reader implements Searcher", backend, how)
			}
			set := NewSet(backend, []Reader{r}, nil)
			if partial := set.rangers[0] != nil; partial != (backend == RLZ) {
				t.Errorf("%s via %s: member decodes ranges itself = %v", backend, how, partial)
			}
			for _, pat := range patterns {
				var want []Match
				for id := range docs {
					doc, err := r.Get(id)
					if err != nil {
						t.Fatal(err)
					}
					for off := 0; off+len(pat) <= len(doc); off++ {
						if string(doc[off:off+len(pat)]) == pat {
							want = append(want, Match{Doc: id, Offset: off})
						}
					}
				}
				got, err := set.FindAll([]byte(pat), 0)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s via %s: FindAll(%q) = %v, %v; want %v", backend, how, pat, got, err, want)
				}
				for _, m := range got {
					from, to := max(m.Offset-9, 0), min(m.Offset+len(pat)+9, len(docs[m.Doc]))
					win, err := set.GetRange(m.Doc, m.Offset-9, m.Offset+len(pat)+9)
					if err != nil || !bytes.Equal(win, docs[m.Doc][from:to]) {
						t.Fatalf("%s via %s: GetRange around %v = %q, %v; want %q", backend, how, m, win, err, docs[m.Doc][from:to])
					}
				}
			}
		}
		if err := file.Close(); err != nil {
			t.Error(err)
		}
	}
}

func TestParseBackend(t *testing.T) {
	for _, b := range []Backend{RLZ, Block, Raw} {
		got, err := ParseBackend(string(b))
		if err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b, got, err)
		}
	}
	for _, name := range []string{"zip", string(Live)} {
		if _, err := ParseBackend(name); err == nil {
			t.Errorf("backend %q accepted as a build target", name)
		}
	}
}

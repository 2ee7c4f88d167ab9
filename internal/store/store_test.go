package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rlz/internal/mmapio"
	"rlz/internal/rlz"
)

// makeDocs builds web-like documents sharing boilerplate so factorization
// is meaningful.
func makeDocs(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]byte, n)
	for i := range docs {
		var b bytes.Buffer
		fmt.Fprintf(&b, "<html><head><title>Doc %d</title></head><body>", i)
		for j := 0; j < 5+rng.Intn(20); j++ {
			fmt.Fprintf(&b, "<p>common boilerplate sentence number %d</p>", rng.Intn(8))
		}
		fmt.Fprintf(&b, "<unique>%x</unique></body></html>", rng.Int63())
		docs[i] = b.Bytes()
	}
	return docs
}

func buildArchive(t *testing.T, docs [][]byte, codec rlz.PairCodec) []byte {
	t.Helper()
	var collection []byte
	for _, d := range docs {
		collection = append(collection, d...)
	}
	dict := rlz.SampleEven(collection, len(collection)/10+1, 256)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dict, codec)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		id, err := w.Append(d)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("Append returned id %d, want %d", id, i)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestArchiveRoundTripAllCodecs(t *testing.T) {
	docs := makeDocs(50, 1)
	for _, codec := range rlz.AllCodecs {
		arc := buildArchive(t, docs, codec)
		r, err := OpenBytes(arc)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if r.NumDocs() != len(docs) {
			t.Fatalf("%s: NumDocs = %d", codec, r.NumDocs())
		}
		if r.Codec() != codec {
			t.Fatalf("%s: codec = %s", codec, r.Codec())
		}
		for i, want := range docs {
			got, err := r.Get(i)
			if err != nil {
				t.Fatalf("%s: Get(%d): %v", codec, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: Get(%d) mismatch (%d vs %d bytes)", codec, i, len(got), len(want))
			}
		}
	}
}

func TestArchiveRandomAccessOrder(t *testing.T) {
	docs := makeDocs(100, 2)
	arc := buildArchive(t, docs, rlz.CodecZV)
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		id := rng.Intn(len(docs))
		got, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, docs[id]) {
			t.Fatalf("random Get(%d) mismatch", id)
		}
	}
}

func TestArchiveFileRoundTrip(t *testing.T) {
	docs := makeDocs(20, 4)
	arc := buildArchive(t, docs, rlz.CodecUV)
	path := filepath.Join(t.TempDir(), "test.rlz")
	if err := os.WriteFile(path, arc, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, want := range docs {
		got, err := r.Get(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
}

func TestArchiveGetAppendReusesBuffer(t *testing.T) {
	docs := makeDocs(10, 5)
	arc := buildArchive(t, docs, rlz.CodecZZ)
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.GetAppend([]byte("prefix|"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, []byte("prefix|")) || !bytes.HasSuffix(out, docs[3][len(docs[3])-10:]) {
		t.Error("GetAppend did not append to the provided buffer")
	}
}

func TestArchiveExtent(t *testing.T) {
	docs := makeDocs(10, 6)
	arc := buildArchive(t, docs, rlz.CodecUV)
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	var prevEnd int64 = -1
	for i := 0; i < r.NumDocs(); i++ {
		off, n, err := r.Extent(i)
		if err != nil {
			t.Fatal(err)
		}
		if prevEnd >= 0 && off != prevEnd {
			t.Fatalf("document %d extent not contiguous: off %d, prev end %d", i, off, prevEnd)
		}
		prevEnd = off + n
		if off < 0 || off+n > r.Size() {
			t.Fatalf("extent [%d, %d) outside archive of %d", off, off+n, r.Size())
		}
	}
	if _, _, err := r.Extent(-1); err == nil {
		t.Error("Extent(-1) accepted")
	}
	if _, _, err := r.Extent(r.NumDocs()); err == nil {
		t.Error("Extent past end accepted")
	}
}

func TestArchiveEmptyDocuments(t *testing.T) {
	docs := [][]byte{[]byte("one"), {}, []byte("three"), {}}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []byte("one three"), rlz.CodecZV)
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
	r, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range docs {
		got, err := r.Get(i)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestArchiveAppendAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []byte("dict"), rlz.CodecUV)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("late")); err == nil {
		t.Error("Append after Close accepted")
	}
	if err := w.Close(); err != nil {
		t.Error("double Close should be a no-op")
	}
}

func TestOpenRejectsCorruptArchives(t *testing.T) {
	docs := makeDocs(5, 7)
	arc := buildArchive(t, docs, rlz.CodecZZ)

	if _, err := OpenBytes(arc[:8]); err == nil {
		t.Error("tiny prefix accepted")
	}
	// Truncations anywhere must never panic.
	for i := 0; i < len(arc); i += 11 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic opening truncation to %d: %v", i, r)
				}
			}()
			if r, err := OpenBytes(arc[:i]); err == nil {
				// An Open that slipped through must still fail on Get.
				if _, err := r.Get(0); err == nil {
					t.Fatalf("truncation to %d fully readable", i)
				}
			}
		}()
	}
}

func TestArchiveCompressionIsEffective(t *testing.T) {
	docs := makeDocs(200, 8)
	var total int
	for _, d := range docs {
		total += len(d)
	}
	arc := buildArchive(t, docs, rlz.CodecZZ)
	// Archive includes the dictionary (10% of collection); even so the
	// whole thing should be well under half the raw size for this
	// boilerplate-heavy corpus.
	if len(arc) > total/2 {
		t.Errorf("archive %d bytes for %d raw; expected < 50%%", len(arc), total)
	}
}

// openMapped writes arc to a file and opens it through a memory mapping,
// the way archive.Open serves every segment of a live collection.
func openMapped(t *testing.T, arc []byte) *Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "arc.rlz")
	if err := os.WriteFile(path, arc, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mmapio.Map(f, int64(len(arc)))
	if err != nil {
		f.Close()
		t.Skipf("no memory mapping here: %v", err)
	}
	t.Cleanup(func() {
		m.Close()
		f.Close()
	})
	r, err := Open(m, int64(len(arc)))
	if err != nil {
		t.Fatal(err)
	}
	if r.view == nil {
		t.Fatal("a mapped archive should be read through views")
	}
	return r
}

// TestGetAppendSteadyStateAllocs pins the read path's pooling: a warm
// Reader decodes into a reused buffer without allocating, whether records
// are views of a mapping or staged through ReadAt, under every position
// and length coding. (Before pooling: 55 allocations and 55 KB per read,
// most of it a zlib reader built for one 1 KB stream.) The pin is 0, not
// a budget: a pooled buffer that is not put back costs one allocation per
// read, and this is the check that sees it.
func TestGetAppendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	docs := makeDocs(60, 57)
	for _, codec := range append(append([]rlz.PairCodec{}, rlz.AllCodecs...), rlz.ExtensionCodecs...) {
		arc := buildArchive(t, docs, codec)
		inMemory, err := OpenBytes(arc)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]*Reader{"mapped": openMapped(t, arc), "bytes.Reader": inMemory} {
			buf := make([]byte, 0, 64<<10)
			for i := range docs { // warm the pools, check the bytes
				if buf, err = r.GetAppend(buf[:0], i); err != nil || !bytes.Equal(buf, docs[i]) {
					t.Fatalf("%s %s: document %d: %v", codec, name, i, err)
				}
			}
			id := 0
			avg := testing.AllocsPerRun(300, func() {
				buf, _ = r.GetAppend(buf[:0], id%len(docs))
				id++
			})
			if avg != 0 {
				t.Errorf("%s %s: GetAppend allocates %.2f objects per read in steady state, want 0", codec, name, avg)
			}
		}
	}
}

// TestConcurrentReadersShareThePools hammers one Reader from 8
// goroutines through every entry point that draws on the decode pools;
// run it under -race. Each goroutine checks every byte it gets back, so
// scratch handed to two decodes at once shows up as a wrong document
// even without the detector.
func TestConcurrentReadersShareThePools(t *testing.T) {
	docs := makeDocs(80, 59)
	for _, codec := range []rlz.PairCodec{rlz.CodecZZ, rlz.CodecZS, rlz.CodecPV} {
		arc := buildArchive(t, docs, codec)
		inMemory, err := OpenBytes(arc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Reader{openMapped(t, arc), inMemory} {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					var buf []byte
					for i := 0; i < 400; i++ {
						id := rng.Intn(len(docs))
						var err error
						if i%4 == 3 {
							from := rng.Intn(len(docs[id]))
							to := from + rng.Intn(len(docs[id])-from+1)
							if buf, err = r.GetRange(id, from, to); err != nil || !bytes.Equal(buf, docs[id][from:to]) {
								t.Errorf("%s: goroutine %d: range [%d,%d) of document %d: %v", codec, g, from, to, id, err)
								return
							}
							continue
						}
						if buf, err = r.GetAppend(buf[:0], id); err != nil || !bytes.Equal(buf, docs[id]) {
							t.Errorf("%s: goroutine %d: document %d: %v", codec, g, id, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		}
	}
}

package blockstore

import (
	"bytes"
	"compress/zlib"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"rlz/internal/coding"
	"rlz/internal/docmap"
	"rlz/internal/lz77"
)

func makeDocs(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]byte, n)
	for i := range docs {
		var b bytes.Buffer
		fmt.Fprintf(&b, "<html><title>Doc %d</title><body>", i)
		for j := 0; j < 3+rng.Intn(10); j++ {
			fmt.Fprintf(&b, "<p>repeated boilerplate %d</p>", rng.Intn(5))
		}
		fmt.Fprintf(&b, "%x</body></html>", rng.Int63())
		docs[i] = b.Bytes()
	}
	return docs
}

func build(t *testing.T, docs [][]byte, opt Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		id, err := w.Append(d)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("Append returned %d, want %d", id, i)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func verifyAll(t *testing.T, arc []byte, docs [][]byte, label string) *Reader {
	t.Helper()
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if r.NumDocs() != len(docs) {
		t.Fatalf("%s: NumDocs = %d, want %d", label, r.NumDocs(), len(docs))
	}
	for i, want := range docs {
		got, err := r.Get(i)
		if err != nil {
			t.Fatalf("%s: Get(%d): %v", label, i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Get(%d) mismatch", label, i)
		}
	}
	return r
}

func TestRoundTripAlgorithmsAndBlockSizes(t *testing.T) {
	docs := makeDocs(60, 1)
	for _, alg := range []Algorithm{Zlib, LZ77, Flate, LZR} {
		for _, bs := range []int{0, 256, 4096, 1 << 20} {
			label := fmt.Sprintf("%s/%d", alg, bs)
			arc := build(t, docs, Options{BlockSize: bs, Algorithm: alg})
			verifyAll(t, arc, docs, label)
		}
	}
}

func TestSingleDocPerBlockExtents(t *testing.T) {
	docs := makeDocs(10, 2)
	arc := build(t, docs, Options{BlockSize: 0})
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	// With one document per block, every document has a distinct block.
	seen := map[int64]bool{}
	for i := range docs {
		off, _, err := r.Extent(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[off] {
			t.Fatalf("documents share block at offset %d", off)
		}
		seen[off] = true
	}
}

func TestLargeBlocksShareExtents(t *testing.T) {
	docs := makeDocs(50, 3)
	arc := build(t, docs, Options{BlockSize: 1 << 20})
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	off0, n0, _ := r.Extent(0)
	offLast, nLast, _ := r.Extent(len(docs) - 1)
	if off0 != offLast || n0 != nLast {
		t.Error("all docs should live in one big block")
	}
}

func TestBiggerBlocksCompressBetter(t *testing.T) {
	docs := makeDocs(300, 4)
	small := build(t, docs, Options{BlockSize: 0})
	big := build(t, docs, Options{BlockSize: 1 << 20})
	if len(big) >= len(small) {
		t.Errorf("1MB blocks (%d) not smaller than per-doc blocks (%d)", len(big), len(small))
	}
}

func TestLZ77BeatsZlibOnGlobalRedundancy(t *testing.T) {
	// Documents repeat with a long period; within a large block the
	// large-window coder sees the repeats, zlib's 32 KB window does not.
	rng := rand.New(rand.NewSource(5))
	unit := make([]byte, 60<<10)
	for i := range unit {
		unit[i] = byte(32 + rng.Intn(64))
	}
	docs := make([][]byte, 8)
	for i := range docs {
		docs[i] = unit // identical 60 KB docs, 480 KB total
	}
	z := build(t, docs, Options{BlockSize: 1 << 20, Algorithm: Zlib})
	l := build(t, docs, Options{BlockSize: 1 << 20, Algorithm: LZ77})
	if len(l) >= len(z) {
		t.Errorf("lzma-substitute (%d) not smaller than zlib (%d) on long-period redundancy", len(l), len(z))
	}
}

func TestFileRoundTrip(t *testing.T) {
	docs := makeDocs(20, 6)
	arc := build(t, docs, Options{BlockSize: 1024, Algorithm: LZ77})
	path := filepath.Join(t.TempDir(), "test.blk")
	if err := os.WriteFile(path, arc, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := Open(f, int64(len(arc)))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range docs {
		got, err := r.Get(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
}

func TestEmptyDocuments(t *testing.T) {
	docs := [][]byte{{}, []byte("x"), {}, []byte("y")}
	arc := build(t, docs, Options{BlockSize: 2})
	verifyAll(t, arc, docs, "empty docs")
}

func TestAppendAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("late")); err == nil {
		t.Error("Append after Close accepted")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	docs := makeDocs(10, 7)
	arc := build(t, docs, Options{BlockSize: 512})

	bad := append([]byte{}, arc...)
	bad[0] = 'X'
	if _, err := OpenBytes(bad); err == nil {
		t.Error("bad header magic accepted")
	}
	bad = append([]byte{}, arc...)
	bad[5] = 'q' // unknown algorithm
	if _, err := OpenBytes(bad); err == nil {
		t.Error("unknown algorithm accepted")
	}
	for i := 0; i < len(arc); i += 13 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation to %d: %v", i, r)
				}
			}()
			OpenBytes(arc[:i])
		}()
	}
	// Corrupt a block body: Get must error (zlib/lz77 checksums), not
	// return wrong bytes silently for the LZ77 algorithm.
	arcL := build(t, docs, Options{BlockSize: 512, Algorithm: LZ77})
	bad = append([]byte{}, arcL...)
	bad[20] ^= 0xFF
	if r, err := OpenBytes(bad); err == nil {
		if _, err := r.Get(0); err == nil {
			t.Error("corrupt LZ77 block decoded without error")
		}
	}
}

func TestGetOutOfRange(t *testing.T) {
	docs := makeDocs(3, 8)
	arc := build(t, docs, Options{})
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 3, 1000} {
		if _, err := r.Get(id); err == nil {
			t.Errorf("Get(%d) accepted", id)
		}
	}
}

// TestParallelWritersMatchSequential pins the Workers option: any worker
// count produces byte-identical archives, for both algorithms.
func TestParallelWritersMatchSequential(t *testing.T) {
	docs := makeDocs(90, 21)
	for _, alg := range []Algorithm{Zlib, LZ77} {
		seq := build(t, docs, Options{BlockSize: 700, Algorithm: alg})
		for _, workers := range []int{2, 5, 16} {
			par := build(t, docs, Options{BlockSize: 700, Algorithm: alg, Workers: workers})
			if !bytes.Equal(seq, par) {
				t.Fatalf("%s workers=%d: parallel archive differs from sequential (%d vs %d bytes)",
					alg, workers, len(par), len(seq))
			}
		}
		verifyAll(t, seq, docs, alg.String())
	}
}

// TestParallelWriterPropagatesWriteError: a failing sink surfaces at
// Close (commits happen on the pipeline goroutine).
func TestParallelWriterPropagatesWriteError(t *testing.T) {
	docs := makeDocs(60, 22)
	w, err := NewWriter(&failingWriter{limit: 512}, Options{BlockSize: 256, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var failed bool
	for _, d := range docs {
		if _, err := w.Append(d); err != nil {
			failed = true
			break
		}
	}
	if err := w.Close(); err == nil && !failed {
		t.Fatal("write error swallowed by parallel writer")
	}
}

type failingWriter struct {
	limit int
	seen  int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	f.seen += len(p)
	if f.seen > f.limit {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestParallelWriterCloseDrainsAfterError: Close must drain the pipeline
// even when flushing failed, so no worker goroutines outlive the writer,
// and repeated Closes must keep reporting the failure.
func TestParallelWriterCloseDrainsAfterError(t *testing.T) {
	before := runtime.NumGoroutine()
	docs := makeDocs(60, 23)
	for i := 0; i < 10; i++ {
		w, err := NewWriter(&failingWriter{limit: 512}, Options{BlockSize: 256, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			if _, err := w.Append(d); err != nil {
				break
			}
		}
		if err := w.Close(); err == nil {
			t.Fatal("Close swallowed the sink error")
		}
		if err := w.Close(); err == nil {
			t.Fatal("second Close reported success after a failed build")
		}
	}
	// Workers exit asynchronously after the drain; give them a moment.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after 10 failed builds", before, runtime.NumGoroutine())
}

// TestGetUnknownAlgorithm covers decodeBlock's guard arm: a Reader whose
// codec was never resolved (Open validates, so this means a corrupted or
// hand-constructed Reader) must report the unknown algorithm explicitly
// instead of the misleading zero-length-block corruption error that a nil
// block used to produce.
func TestGetUnknownAlgorithm(t *testing.T) {
	docs := makeDocs(5, 29)
	arc := build(t, docs, Options{BlockSize: 4096})
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	// Open validates; simulate a corrupted in-memory Reader.
	r.alg = Algorithm('?')
	r.decoders = nil
	_, err = r.Get(0)
	if err == nil {
		t.Fatal("Get with unknown algorithm succeeded")
	}
	if !errors.Is(err, ErrCorruptArchive) {
		t.Errorf("error %v is not ErrCorruptArchive", err)
	}
	if !strings.Contains(err.Error(), "unknown compression algorithm") {
		t.Errorf("error %q does not name the unknown algorithm", err)
	}
	if strings.Contains(err.Error(), "outside block of 0") {
		t.Errorf("error %q still reports the misleading empty-block extent", err)
	}
}

// TestReusedAppendBufferNeverBleeds drives the aliasing contract through
// the Reader: two documents in one block, decoded into pooled block
// buffers and retrieved with one reused append buffer, must never bleed
// into each other, whatever the caller does to what it was handed.
func TestReusedAppendBufferNeverBleeds(t *testing.T) {
	docs := makeDocs(40, 31)
	arc := build(t, docs, Options{BlockSize: 1 << 20}) // all docs in one block
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for pass := 0; pass < 3; pass++ {
		for i, want := range docs {
			buf, err = r.GetAppend(buf[:0], i)
			if err != nil || !bytes.Equal(buf, want) {
				t.Fatalf("pass %d doc %d mismatch (err %v)", pass, i, err)
			}
			// Scribble over the returned buffer as a rude caller would.
			for j := range buf {
				buf[j] = '#'
			}
		}
	}
}

// TestZlibBombRejected pins the decompression budget: a hostile archive
// whose block claims 10 bytes of documents but inflates to megabytes
// must fail with ErrCorruptArchive after at most declared+1 bytes, not
// materialize the bomb.
func TestZlibBombRejected(t *testing.T) {
	// An 8 MiB zero bomb compresses to a few KiB.
	var bomb bytes.Buffer
	zw, err := zlib.NewWriterLevel(&bomb, zlib.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(make([]byte, 8<<20)); err != nil {
		t.Fatal(err)
	}
	zw.Close()

	var arc []byte
	arc = append(arc, headerMagic...)
	arc = append(arc, version, byte(Zlib))
	arc = append(arc, bomb.Bytes()...)
	mapOff := len(arc)
	blocks := docmap.New()
	blocks.Append(uint64(bomb.Len()))
	arc = blocks.Marshal(arc)
	arc = coding.PutUvarint64(arc, 1)  // one document...
	arc = coding.PutUvarint32(arc, 0)  // ...in block 0
	arc = coding.PutUvarint32(arc, 0)  // at offset 0
	arc = coding.PutUvarint32(arc, 10) // claiming 10 bytes
	arc = coding.PutU64(arc, uint64(mapOff))
	arc = append(arc, footerMagic...)

	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatalf("Open rejected the structure, want rejection at read time: %v", err)
	}
	if _, err := r.Get(0); !errors.Is(err, ErrCorruptArchive) {
		t.Fatalf("Get on bomb block = %v, want ErrCorruptArchive", err)
	}
}

// TestHonestBlockSizesStillServe: the budget equals the real block size
// for every honestly built archive — boundary check, not a behavior
// change.
func TestHonestBlockSizesStillServe(t *testing.T) {
	for _, alg := range []Algorithm{Zlib, LZ77, Flate, LZR} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Options{BlockSize: 64, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		var docs [][]byte
		for i := 0; i < 20; i++ {
			d := []byte(strings.Repeat("block body ", i%5+1))
			docs = append(docs, d)
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
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("alg %v doc %d: %v", alg, i, err)
			}
		}
	}
}

// TestLZ77BombRejected: the same budget guards the LZ77 path, enforced
// against the stream's own length header before any allocation.
func TestLZ77BombRejected(t *testing.T) {
	bomb := lz77.Compress(nil, make([]byte, 8<<20), lz77.Options{})

	var arc []byte
	arc = append(arc, headerMagic...)
	arc = append(arc, version, byte(LZ77))
	arc = append(arc, bomb...)
	mapOff := len(arc)
	blocks := docmap.New()
	blocks.Append(uint64(len(bomb)))
	arc = blocks.Marshal(arc)
	arc = coding.PutUvarint64(arc, 1)
	arc = coding.PutUvarint32(arc, 0)
	arc = coding.PutUvarint32(arc, 0)
	arc = coding.PutUvarint32(arc, 10)
	arc = coding.PutU64(arc, uint64(mapOff))
	arc = append(arc, footerMagic...)

	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatalf("Open rejected the structure, want rejection at read time: %v", err)
	}
	if _, err := r.Get(0); !errors.Is(err, ErrCorruptArchive) {
		t.Fatalf("Get on LZ77 bomb block = %v, want ErrCorruptArchive", err)
	}
}

// TestHostileLocatorsRejected: locators themselves are hostile input; a
// document declaring a multi-gigabyte block must be rejected at Open,
// before any read can be asked to allocate the budget it grants.
func TestHostileLocatorsRejected(t *testing.T) {
	var comp bytes.Buffer
	zw, _ := zlib.NewWriterLevel(&comp, zlib.BestCompression)
	zw.Write([]byte("tiny"))
	zw.Close()

	var arc []byte
	arc = append(arc, headerMagic...)
	arc = append(arc, version, byte(Zlib))
	arc = append(arc, comp.Bytes()...)
	mapOff := len(arc)
	blocks := docmap.New()
	blocks.Append(uint64(comp.Len()))
	arc = blocks.Marshal(arc)
	arc = coding.PutUvarint64(arc, 1)
	arc = coding.PutUvarint32(arc, 0)
	arc = coding.PutUvarint32(arc, 1<<31) // offset: 2 GiB into the "block"
	arc = coding.PutUvarint32(arc, 1<<31) // length: another 2 GiB
	arc = coding.PutU64(arc, uint64(mapOff))
	arc = append(arc, footerMagic...)

	if _, err := OpenBytes(arc); !errors.Is(err, ErrCorruptArchive) {
		t.Fatalf("Open with 4 GiB locator = %v, want ErrCorruptArchive", err)
	}
}

// TestNewWriterRejectsUnknownAlgorithm pins the fail-fast contract: an
// unregistered algorithm must fail at NewWriter — before any bytes are
// written — naming the registered codecs, not at first block flush.
func TestNewWriterRejectsUnknownAlgorithm(t *testing.T) {
	var buf bytes.Buffer
	_, err := NewWriter(&buf, Options{Algorithm: Algorithm('?')})
	if err == nil {
		t.Fatal("NewWriter accepted an unknown algorithm")
	}
	for _, name := range []string{"zlib", "flate", "lzma", "lzr"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list codec %q", err, name)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("NewWriter wrote %d bytes before failing", buf.Len())
	}
}

// TestCorruptBlockRejectedAllCodecs flips a byte inside each codec's
// compressed block body; every codec must reject it (checksums: Adler-32
// for zlib/flate, Adler-32 trailers for lzma*/lzr), never serve wrong
// bytes silently.
func TestCorruptBlockRejectedAllCodecs(t *testing.T) {
	docs := makeDocs(30, 41)
	for _, alg := range []Algorithm{Zlib, LZ77, Flate, LZR} {
		arc := build(t, docs, Options{BlockSize: 4096, Algorithm: alg})
		r0, err := OpenBytes(arc)
		if err != nil {
			t.Fatal(err)
		}
		off, n, err := r0.Extent(0)
		if err != nil {
			t.Fatal(err)
		}
		rejected := false
		// Flip each byte of doc 0's block in turn; at least one flip must
		// surface as an error, and no flip may yield wrong bytes.
		for p := off; p < off+n; p++ {
			bad := append([]byte{}, arc...)
			bad[p] ^= 0xFF
			r, err := OpenBytes(bad)
			if err != nil {
				rejected = true
				continue
			}
			got, err := r.Get(0)
			if err != nil {
				if !errors.Is(err, ErrCorruptArchive) {
					t.Errorf("%s: flip at %d: error %v is not ErrCorruptArchive", alg, p, err)
				}
				rejected = true
				continue
			}
			if !bytes.Equal(got, docs[0]) {
				t.Fatalf("%s: flip at %d served wrong bytes without error", alg, p)
			}
		}
		if !rejected {
			t.Errorf("%s: no byte flip in the block was ever rejected", alg)
		}
	}
}

// TestGetBatch pins the batch contract across codecs and worker counts:
// every index visited exactly once, correct bytes, out-of-range ids
// reported individually, and documents sharing a block served from one
// decode.
func TestGetBatch(t *testing.T) {
	docs := makeDocs(80, 43)
	for _, alg := range []Algorithm{Zlib, LZR} {
		arc := build(t, docs, Options{BlockSize: 2048, Algorithm: alg})
		r, err := OpenBytes(arc)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 4, 16} {
			// Mix of in-range (with duplicates sharing blocks) and bad ids.
			ids := []int{5, 70, 5, 0, -1, 12, 13, 14, 800, 79, 6}
			got := make(map[int]int) // index -> visits
			r.GetBatch(ids, workers, func(i int, doc []byte, err error) {
				got[i]++
				id := ids[i]
				if id < 0 || id >= len(docs) {
					if err == nil {
						t.Errorf("%s w=%d: bad id %d accepted", alg, workers, id)
					}
					return
				}
				if err != nil {
					t.Errorf("%s w=%d: id %d: %v", alg, workers, id, err)
					return
				}
				if !bytes.Equal(doc, docs[id]) {
					t.Errorf("%s w=%d: id %d bytes mismatch", alg, workers, id)
				}
			})
			for i := range ids {
				if got[i] != 1 {
					t.Fatalf("%s w=%d: index %d visited %d times", alg, workers, i, got[i])
				}
			}
		}
	}
}

// TestGetBatchReturnsEveryBlockBuffer: a batch puts each decoded block's
// buffer back into the pool once, decoding in turn or in parallel. The
// reader serves views, so block buffers are the only ones pooled.
func TestGetBatchReturnsEveryBlockBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	docs := makeDocs(80, 43)
	arc := build(t, docs, Options{BlockSize: 2048})
	r, err := Open(viewReaderAt(arc), int64(len(arc)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for round := 0; round < 3; round++ {
			pooled(t, r)
			ids := []int{0, 30, 31, 60, 79}
			r.GetBatch(ids, workers, func(i int, doc []byte, err error) {
				if err != nil || !bytes.Equal(doc, docs[ids[i]]) {
					t.Errorf("workers=%d: id %d: %v", workers, ids[i], err)
				}
			})
			if n := pooled(t, r); n == 0 {
				t.Errorf("workers=%d: no block buffer went back to the pool", workers)
			}
		}
	}
}

// TestGetBatchSingleBlockDedupe: a batch of many documents from one block
// must decode that block exactly once.
func TestGetBatchSingleBlockDedupe(t *testing.T) {
	docs := makeDocs(50, 47)
	arc := build(t, docs, Options{BlockSize: 1 << 20}) // one big block
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumBlocks() != 1 {
		t.Fatalf("expected a single block, got %d", r.NumBlocks())
	}
	reads := &countingReaderAt{r: bytes.NewReader(arc)}
	r.r = reads
	var ids []int
	for i := range docs {
		ids = append(ids, i)
	}
	visited := 0
	r.GetBatch(ids, 8, func(i int, doc []byte, err error) {
		if err != nil || !bytes.Equal(doc, docs[ids[i]]) {
			t.Errorf("id %d: %v", ids[i], err)
		}
		visited++
	})
	if visited != len(ids) {
		t.Fatalf("visited %d of %d", visited, len(ids))
	}
	if reads.calls != 1 {
		t.Errorf("batch over one block issued %d block reads, want 1", reads.calls)
	}
}

type countingReaderAt struct {
	r     *bytes.Reader
	calls int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls++
	return c.r.ReadAt(p, off)
}

// TestGetAppendSteadyStateAllocs pins the pooled-buffer satellite: after
// warmup, an uncached block read allocates exactly one object, the release
// closure decodeBlock returns — no per-read decoder, compressed buffer or
// block buffer. A block buffer that is not put back reads 4.
func TestGetAppendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	docs := makeDocs(40, 53)
	arc := build(t, docs, Options{BlockSize: 4096})
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64<<10)
	for i := range docs { // warm the pools
		if buf, err = r.GetAppend(buf[:0], i); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		buf, _ = r.GetAppend(buf[:0], 7)
	})
	// The pre-pooling implementation allocated ~20+ objects per read
	// (fresh zlib reader, window, compressed buf, ReadAll growth).
	if avg > 1 {
		t.Errorf("uncached GetAppend allocates %.1f objects/read in steady state, want 1", avg)
	}
	// A read that fails after its block decoded puts both its buffers back
	// all the same. On one P with the GC held off the pool keeps what it is
	// given, so after a run of failing reads it still holds two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r.docs[8].length = 1 << 20 // past the end of its block
	for i := 0; i < 20; i++ {
		if _, err := r.GetAppend(buf[:0], 8); !errors.Is(err, ErrCorruptArchive) {
			t.Fatalf("document past its block's end: %v", err)
		}
	}
	if held := pooled(t, r); held < 2 {
		t.Errorf("after 20 failing reads the pool holds %d buffers, want 2: a failing read kept one", held)
	}
}

// pooled empties r's buffer pool and returns how many buffers it held,
// failing t if one was in it twice (a release that ran twice). Call it on
// one P with the GC held off, where the pool keeps what it is given.
func pooled(t *testing.T, r *Reader) int {
	t.Helper()
	seen := map[*[]byte]bool{}
	for b := r.bufs.Get(); b != nil; b = r.bufs.Get() {
		if p := b.(*[]byte); seen[p] {
			t.Errorf("a buffer was put back into the pool twice")
		} else {
			seen[p] = true
		}
	}
	return len(seen)
}

// viewReaderAt serves reads and zero-copy slices of one byte slice, as a
// mapping does.
type viewReaderAt []byte

func (v viewReaderAt) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(v).ReadAt(p, off)
}

func (v viewReaderAt) Slice(off, n int64) ([]byte, error) { return v[off : off+n : off+n], nil }

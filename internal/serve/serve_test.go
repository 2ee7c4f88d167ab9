package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"rlz/internal/archive"
	"rlz/internal/coding"
	"rlz/internal/collection"
	"rlz/internal/corpus"
	"rlz/internal/docmap"
	"rlz/internal/rlz"
	"rlz/internal/store"
)

// makeDocs builds a small synthetic web-ish collection.
func makeDocs(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]byte, n)
	for i := range docs {
		var b bytes.Buffer
		fmt.Fprintf(&b, "<html><title>Doc %d</title><body>", i)
		for j := 0; j < 3+rng.Intn(8); j++ {
			fmt.Fprintf(&b, "<p>boilerplate %d shared across documents</p>", rng.Intn(4))
		}
		fmt.Fprintf(&b, "%x</body></html>", rng.Int63())
		docs[i] = b.Bytes()
	}
	return docs
}

// backendOptions enumerates one archive.Options per backend, so every
// test in this package runs against rlz, block and raw.
func backendOptions(docs [][]byte) map[string]archive.Options {
	var all []byte
	for _, d := range docs {
		all = append(all, d...)
	}
	dict := rlz.SampleEven(all, len(all)/10+64, 256)
	return map[string]archive.Options{
		"rlz":   {Backend: archive.RLZ, Dict: dict, Codec: rlz.CodecZV},
		"block": {Backend: archive.Block, BlockSize: 4096},
		"raw":   {Backend: archive.Raw},
	}
}

func buildArchive(t testing.TB, docs [][]byte, opts archive.Options) archive.Reader {
	t.Helper()
	var buf bytes.Buffer
	if _, err := archive.Build(&buf, archive.FromBodies(docs), opts); err != nil {
		t.Fatal(err)
	}
	r, err := archive.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGetAllBackends(t *testing.T) {
	docs := makeDocs(50, 1)
	for name, opts := range backendOptions(docs) {
		t.Run(name, func(t *testing.T) {
			// Cache covers the whole collection so the second pass hits.
			s := New(buildArchive(t, docs, opts), Options{CacheDocs: len(docs)})
			for pass := 0; pass < 2; pass++ {
				for i, want := range docs {
					got, err := s.Get(i)
					if err != nil {
						t.Fatalf("pass %d Get(%d): %v", pass, i, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("pass %d Get(%d) mismatch", pass, i)
					}
				}
			}
			st := s.Stats()
			if st.Requests != int64(2*len(docs)) {
				t.Errorf("Requests = %d, want %d", st.Requests, 2*len(docs))
			}
			if st.CacheHits == 0 {
				t.Error("no cache hits on the second pass")
			}
		})
	}
}

func TestGetBatch(t *testing.T) {
	docs := makeDocs(30, 2)
	tests := []struct {
		name    string
		ids     []int
		wantErr []bool // per position
	}{
		{"empty", nil, nil},
		{"single", []int{7}, []bool{false}},
		{"ordered", []int{0, 1, 2, 3}, []bool{false, false, false, false}},
		{"duplicates", []int{5, 5, 5}, []bool{false, false, false}},
		{"out-of-range-high", []int{1, 30, 2}, []bool{false, true, false}},
		{"out-of-range-negative", []int{-1, 0}, []bool{true, false}},
		{"all-bad", []int{99, -5}, []bool{true, true}},
		{"wide", func() []int {
			ids := make([]int, 100)
			for i := range ids {
				ids[i] = i % 30
			}
			return ids
		}(), make([]bool, 100)},
	}
	for name, opts := range backendOptions(docs) {
		s := New(buildArchive(t, docs, opts), Options{CacheDocs: 4, Workers: 8})
		for _, tc := range tests {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				res := s.GetBatch(tc.ids)
				if len(res) != len(tc.ids) {
					t.Fatalf("got %d results for %d ids", len(res), len(tc.ids))
				}
				for i, r := range res {
					if r.ID != tc.ids[i] {
						t.Errorf("result %d is for id %d, want %d", i, r.ID, tc.ids[i])
					}
					if wantErr := tc.wantErr[i]; wantErr != (r.Err != nil) {
						t.Errorf("result %d (id %d): err = %v, wantErr = %v", i, r.ID, r.Err, wantErr)
					}
					if r.Err != nil {
						if !errors.Is(r.Err, docmap.ErrNoSuchDoc) {
							t.Errorf("result %d: error %v is not ErrNoSuchDoc", i, r.Err)
						}
						continue
					}
					if !bytes.Equal(r.Data, docs[r.ID]) {
						t.Errorf("result %d (id %d): wrong bytes", i, r.ID)
					}
				}
			})
		}
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	docs := makeDocs(64, 3)
	for name, opts := range backendOptions(docs) {
		t.Run(name, func(t *testing.T) {
			const capacity = 4
			s := New(buildArchive(t, docs, opts), Options{CacheDocs: capacity})
			// Sweep far more distinct documents than the cache holds.
			for i := range docs {
				if _, err := s.Get(i); err != nil {
					t.Fatal(err)
				}
			}
			st := s.Stats()
			if st.CachedDocs > capacity {
				t.Errorf("CachedDocs = %d exceeds capacity %d", st.CachedDocs, capacity)
			}
			if st.CacheCap != capacity {
				t.Errorf("CacheCap = %d, want %d", st.CacheCap, capacity)
			}
			// The last `capacity` documents must be resident: re-reading
			// them adds hits without decoding any new bytes.
			decoded := st.BytesDecoded
			for i := len(docs) - capacity; i < len(docs); i++ {
				got, err := s.Get(i)
				if err != nil || !bytes.Equal(got, docs[i]) {
					t.Fatalf("cached re-read of %d failed: %v", i, err)
				}
			}
			st = s.Stats()
			if st.BytesDecoded != decoded {
				t.Errorf("re-reading resident docs decoded %d new bytes", st.BytesDecoded-decoded)
			}
			// An evicted document still decodes correctly (miss path).
			got, err := s.Get(0)
			if err != nil || !bytes.Equal(got, docs[0]) {
				t.Fatalf("evicted re-read failed: %v", err)
			}
		})
	}
}

func TestUncachedServerCountsMissesOnlyInBytes(t *testing.T) {
	docs := makeDocs(10, 4)
	s := New(buildArchive(t, docs, backendOptions(docs)["raw"]), Options{})
	for i := range docs {
		if _, err := s.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("uncached server reported cache traffic: %d hits, %d misses", st.CacheHits, st.CacheMisses)
	}
	if st.CachedDocs != 0 || st.CacheCap != 0 {
		t.Errorf("uncached server reported cache occupancy %d/%d", st.CachedDocs, st.CacheCap)
	}
	if st.BytesDecoded != st.BytesServed {
		t.Errorf("uncached server: decoded %d != served %d", st.BytesDecoded, st.BytesServed)
	}
}

func TestDoUsesPooledBuffer(t *testing.T) {
	docs := makeDocs(20, 5)
	s := New(buildArchive(t, docs, backendOptions(docs)["rlz"]), Options{CacheDocs: 4})
	for i, want := range docs {
		var got []byte
		err := s.Do(i, func(doc []byte) error {
			got = append(got, doc...) // copy: doc is pool-owned
			return nil
		})
		if err != nil {
			t.Fatalf("Do(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Do(%d) mismatch", i)
		}
	}
	if err := s.Do(len(docs), func([]byte) error { return nil }); err == nil {
		t.Error("Do with out-of-range id did not fail")
	}
	sentinel := errors.New("sentinel")
	if err := s.Do(0, func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("Do did not propagate fn error: %v", err)
	}
	// The scratch buffer goes back to the pool: a warm Do allocates
	// nothing, from a lone archive or from each segment of a live
	// collection, the RLZ one's records in repeats form included.
	if raceEnabled {
		return
	}
	noop := func([]byte) error { return nil }
	if n := testing.AllocsPerRun(100, func() { _ = s.Do(0, noop) }); n != 0 {
		t.Errorf("warm Do allocates %v objects per call, want 0", n)
	}
	col, segs := liveCollection(t)
	s = New(col, Options{})
	for _, seg := range segs {
		id := 0
		if n := testing.AllocsPerRun(100, func() {
			_ = s.Do(seg.first+id%seg.n, noop)
			id++
		}); n != 0 {
			t.Errorf("warm Do from a collection's %s segment allocates %v objects per call, want 0", seg.name, n)
		}
	}
	// A miss that evicts copies the document into the victim's buffer.
	// Five ids of like size from the sealed RLZ segment cycle through a
	// four-document cache, so every call misses; once each slot's buffer
	// has held the largest of them, no miss allocates.
	ids := likeSizedIDs(t, col, segs[0], 5)
	s = New(col, Options{CacheDocs: 4})
	buf := make([]byte, 0, 64<<10)
	next := 0
	miss := map[string]func(){
		"Do":        func() { _ = s.Do(ids[next%len(ids)], noop); next++ },
		"GetAppend": func() { buf, _ = s.GetAppend(buf[:0], ids[next%len(ids)]); next++ },
	}
	for name, call := range miss {
		for range 4 * len(ids) {
			call()
		}
		hits := s.Stats().CacheHits
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("warm %s missing the cache allocates %v objects per call, want 0", name, n)
		}
		if st := s.Stats(); st.CacheHits != hits {
			t.Errorf("%s: %d cache hits while cycling %d ids through %d slots, want none", name, st.CacheHits-hits, len(ids), st.CacheCap)
		}
	}
}

// likeSizedIDs returns the n ids of seg whose sizes sit around its
// median, checking that the largest fits the buffer of any other under
// the cache's reuse bound (at most twice the document plus 4 KiB).
func likeSizedIDs(t *testing.T, r archive.Reader, seg liveSegment, n int) []int {
	t.Helper()
	ids := make([]int, seg.n)
	size := make(map[int]int, seg.n)
	for i := range ids {
		ids[i] = seg.first + i
		doc, err := r.GetAppend(nil, ids[i])
		if err != nil {
			t.Fatal(err)
		}
		size[ids[i]] = len(doc)
	}
	slices.SortFunc(ids, func(a, b int) int { return size[a] - size[b] })
	ids = ids[(len(ids)-n)/2:][:n]
	if lo, hi := size[ids[0]], size[ids[n-1]]; hi > 2*lo+4<<10 {
		t.Fatalf("ids %v span %d to %d bytes, too wide for one buffer to serve all", ids, lo, hi)
	}
	return ids
}

// liveSegment is a run of a collection's ids that one segment holds.
type liveSegment struct {
	name     string
	first, n int
}

// liveCollection returns a collection of seeded Gov documents in three
// segments: a sealed RLZ segment compacted with the default codec,
// whose records take the repeats form, a sealed raw one and the open
// one. Every document is read back once, which also warms the pools.
func liveCollection(t *testing.T) (*collection.Collection, []liveSegment) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "live")
	if err := collection.Init(dir); err != nil {
		t.Fatal(err)
	}
	col, err := collection.Open(dir, collection.Options{Async: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	var docs [][]byte
	for _, d := range corpus.Generate(corpus.Gov, 256<<10, 41).Docs {
		docs = append(docs, d.Body)
	}
	segs := []liveSegment{{"sealed RLZ", 0, len(docs) - 6}, {"sealed raw", len(docs) - 6, 3}, {"open", len(docs) - 3, 3}}
	for _, seg := range segs {
		for _, d := range docs[seg.first : seg.first+seg.n] {
			if _, err := col.Append(d); err != nil {
				t.Fatal(err)
			}
		}
		switch seg.name {
		case "sealed RLZ":
			_, err = col.Compact(collection.CompactOptions{})
		case "sealed raw":
			err = col.Seal()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for i, want := range docs {
		if buf, err = col.GetAppend(buf[:0], i); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("document %d: %v", i, err)
		}
	}
	if n := repeatsRecords(t, dir); n == 0 {
		t.Fatal("the sealed RLZ segment holds no record in repeats form")
	}
	return col, segs
}

// repeatsRecords counts the records in repeats form (position tag 33)
// in the RLZ segments of the collection in dir.
func repeatsRecords(t *testing.T, dir string) int {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "seg-*"))
	count := 0
	for _, path := range paths {
		seg, err := os.ReadFile(path)
		if err != nil || !bytes.HasPrefix(seg, []byte("RLZA")) {
			continue
		}
		r, err := store.OpenBytes(seg)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < r.NumDocs(); id++ {
			off, _, err := r.Extent(id)
			if err != nil {
				t.Fatal(err)
			}
			rec := seg[off:]
			k, n, _ := coding.Uvarint32(rec)
			_, m, _ := coding.Uvarint32(rec[n:])
			if k > 0 && rec[n+m] == 33 {
				count++
			}
		}
	}
	return count
}

func TestErrorsAreCounted(t *testing.T) {
	docs := makeDocs(5, 6)
	s := New(buildArchive(t, docs, backendOptions(docs)["raw"]), Options{CacheDocs: 2})
	if _, err := s.Get(100); err == nil {
		t.Fatal("out-of-range Get succeeded")
	}
	st := s.Stats()
	if st.Errors != 1 {
		t.Errorf("Errors = %d, want 1", st.Errors)
	}
	// Failed requests must not register as cache misses: hits + misses
	// covers successfully served documents only.
	if st.CacheMisses != 0 || st.CacheHits != 0 {
		t.Errorf("failed request counted as cache traffic: %d hits, %d misses", st.CacheHits, st.CacheMisses)
	}
	if _, err := s.Get(0); err != nil {
		t.Fatal(err)
	}
	if st = s.Stats(); st.CacheHits+st.CacheMisses != st.Requests-st.Errors {
		t.Errorf("hits(%d)+misses(%d) != requests(%d)-errors(%d)",
			st.CacheHits, st.CacheMisses, st.Requests, st.Errors)
	}
}

// TestConcurrentGetAllBackends is the shared-Reader race test: 8+
// goroutines hammer one Server (and thus one archive.Reader) with
// overlapping ids, through GetAppend and through Do's pooled buffer. Run
// with -race to make the concurrency contract of every backend an
// enforced property rather than an accident.
func TestConcurrentGetAllBackends(t *testing.T) {
	docs := makeDocs(64, 7)
	for name, opts := range backendOptions(docs) {
		for _, cacheDocs := range []int{0, 8} {
			t.Run(fmt.Sprintf("%s/cache=%d", name, cacheDocs), func(t *testing.T) {
				s := New(buildArchive(t, docs, opts), Options{CacheDocs: cacheDocs, Workers: 8})
				var wg sync.WaitGroup
				for g := 0; g < 10; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						var buf []byte
						var err error
						for i := 0; i < 200; i++ {
							id := (g*13 + i*7) % len(docs) // overlapping across goroutines
							if i%2 == 1 {
								// doc is the pool's buffer, ours only during fn.
								err = s.Do(id, func(doc []byte) error {
									if !bytes.Equal(doc, docs[id]) {
										return fmt.Errorf("%d bytes, want %d", len(doc), len(docs[id]))
									}
									return nil
								})
								if err != nil {
									t.Errorf("goroutine %d Do(%d): %v", g, id, err)
									return
								}
								continue
							}
							buf, err = s.GetAppend(buf[:0], id)
							if err != nil || !bytes.Equal(buf, docs[id]) {
								t.Errorf("goroutine %d Get(%d): %v", g, id, err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				st := s.Stats()
				if want := int64(10 * 200); st.Requests != want {
					t.Errorf("Requests = %d, want %d", st.Requests, want)
				}
			})
		}
	}
}

func TestConcurrentGetBatchSharedServer(t *testing.T) {
	docs := makeDocs(40, 8)
	s := New(buildArchive(t, docs, backendOptions(docs)["block"]), Options{CacheDocs: 8, Workers: 4})
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = (i * 5) % len(docs)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for _, r := range s.GetBatch(ids) {
					if r.Err != nil || !bytes.Equal(r.Data, docs[r.ID]) {
						t.Errorf("batch id %d: %v", r.ID, r.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestLatHist(t *testing.T) {
	var h latHist
	if q := h.quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
	// 99 fast observations and 1 slow one: p50 stays in the fast bucket,
	// p99+ reaches the slow one.
	for i := 0; i < 99; i++ {
		h.observe(100 * time.Nanosecond) // bucket 7, upper bound 128ns
	}
	h.observe(time.Second)
	if p50 := h.quantile(0.50); p50 != 128*time.Nanosecond {
		t.Errorf("p50 = %v, want 128ns", p50)
	}
	if p999 := h.quantile(0.999); p999 < 512*time.Millisecond {
		t.Errorf("p99.9 = %v, want >= 512ms", p999)
	}
	if p99 := h.quantile(0.99); p99 != 128*time.Nanosecond {
		t.Errorf("p99 of 99 fast + 1 slow = %v, want 128ns", p99)
	}
}

func TestStatsString(t *testing.T) {
	docs := makeDocs(5, 9)
	s := New(buildArchive(t, docs, backendOptions(docs)["raw"]), Options{CacheDocs: 2})
	if _, err := s.Get(1); err != nil {
		t.Fatal(err)
	}
	if str := s.Stats().String(); str == "" {
		t.Error("Stats.String is empty")
	}
}

// TestGetBatchAllocations pins what a 32-document batch allocates: its
// results, one bookkeeping slice and one arena all its documents share —
// not a buffer per document. One batch is served wholly from the cache;
// the other misses it wholly (two disjoint id sets take turns through a
// 4-document cache) and adds the backend's visit closure. The block
// backend's decode allocates on its own account, so its misses are not
// pinned here.
func TestGetBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	docs := makeDocs(64, 11)
	ids := func(from int) []int {
		out := make([]int, 32)
		for i := range out {
			out[i] = from + i
		}
		return out
	}
	a, b := ids(0), ids(32)
	for name, opts := range backendOptions(docs) {
		r := buildArchive(t, docs, opts)
		hot := New(r, Options{CacheDocs: 64})
		hot.GetBatch(a)
		if n := testing.AllocsPerRun(50, func() { hot.GetBatch(a) }); n != 3 {
			t.Errorf("%s: an all-hit batch allocates %v objects, want 3", name, n)
		}
		cold := New(r, Options{CacheDocs: 4})
		n := testing.AllocsPerRun(50, func() {
			for _, res := range cold.GetBatch(a) {
				if res.Err != nil || !bytes.Equal(res.Data, docs[res.ID]) {
					t.Fatalf("%s: id %d: wrong document (%v)", name, res.ID, res.Err)
				}
			}
			cold.GetBatch(b)
		})
		if st := cold.Stats(); st.CacheHits != 0 {
			t.Fatalf("%s: %d cache hits, want every lookup to miss", name, st.CacheHits)
		}
		if name != "block" && n != 2*4 {
			t.Errorf("%s: an all-miss batch allocates %v objects, want 4", name, n/2)
		}
	}
}

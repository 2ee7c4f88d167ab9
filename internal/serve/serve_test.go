package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rlz/internal/archive"
	"rlz/internal/docmap"
	"rlz/internal/rlz"
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
	// The scratch buffer goes back to the pool: a warm Do allocates nothing.
	if !raceEnabled {
		noop := func([]byte) error { return nil }
		if n := testing.AllocsPerRun(100, func() { _ = s.Do(0, noop) }); n != 0 {
			t.Errorf("warm Do allocates %v objects per call, want 0", n)
		}
	}
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

// Package serve is the concurrent document-serving layer over
// internal/archive: it wraps any archive.Reader in an explicit
// concurrency contract and adds what a hot read path needs — a document
// cache with SIEVE eviction (internal/lru; the one cache on the read
// path, so every backend benefits and none keeps its own, and its
// buffers are recycled, so a warm miss allocates nothing),
// per-request buffer pooling around the GetAppend zero-allocation path,
// a batch API with per-document error reporting, read statistics
// (hits, misses, bytes decoded, p50/p99 latency), and a cache epoch that
// logically empties the cache when the backing store mutates in place.
//
// The paper's headline claim (HoobinPZ11) is that RLZ makes random
// access under load cheap; this package is where "under load" becomes
// part of the API instead of an accident of ReadAt. cmd/rlzd exposes a
// Server over HTTP, and internal/workload drives either through the
// same Getter interface.
package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rlz/internal/archive"
	"rlz/internal/lru"
)

// Options configures a Server.
type Options struct {
	// CacheDocs is the capacity of the decoded-document cache, in
	// documents (SIEVE eviction, see internal/lru); a value <= 0
	// disables caching, the paper-faithful mode where every request pays
	// full decode cost.
	CacheDocs int
	// Workers bounds GetBatch fan-out on backends that batch natively:
	// at most Workers block decodes run concurrently. 0 means
	// GOMAXPROCS; 1 forces sequential batches.
	Workers int
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// epochBits is how much of the cache key the document id keeps; the
// epoch occupies the remaining high bits. Ids at or above 1<<epochShift
// (a trillion documents) bypass the cache rather than collide.
const epochShift = 40

// epochCycle is the number of distinct epochs the key's high bits can
// express. Epochs 2^24 apart produce identical cache keys, so whenever
// the epoch crosses a cycle boundary the cache is purged outright —
// no entry can survive into the epoch range that would alias it.
const epochCycle = 1 << (64 - epochShift)

// Server serves documents from an archive.Reader to many goroutines.
//
// Concurrency: every Server method is safe for concurrent use. The
// Server relies on the archive.Reader concurrency contract (methods safe
// with distinct destination buffers) and layers internally-synchronized
// state — the document cache, the buffer pool, the statistics — on top.
//
// The reader is fixed for the Server's life and NOT owned by it: close
// it after the Server is quiesced. A reader whose contents change under
// it (a live collection, which hot-swaps its own generations internally)
// is kept coherent with the cache through the epoch: cache entries are
// keyed by (epoch, id), so a document cached before BumpEpoch can never
// be served after it.
type Server struct {
	r       archive.Reader
	viewer  archive.Viewer      // r's zero-copy capability, or nil
	batcher archive.BatchReader // r's native batching, or r in a one-member Set
	epoch   atomic.Uint64
	cache   *lru.Cache // nil = uncached
	workers int
	pool    sync.Pool // *[]byte scratch buffers for Do and GetBatch
	views   sync.Pool // *viewCall, for Do's zero-copy path

	requests     atomic.Int64
	errors       atomic.Int64
	backpressure atomic.Int64
	hits         atomic.Int64
	misses       atomic.Int64
	decoded      atomic.Int64 // bytes decoded by the backend (cache misses)
	served       atomic.Int64 // bytes handed to callers (hits + misses)
	lat          latHist
}

// RecordBackpressure counts one write shed by admission control — rlzd
// calls it for every 429 it answers, so the pressure the daemon is under
// shows up in /stats next to the error count (backpressure responses are
// deliberate load shedding, not errors).
func (s *Server) RecordBackpressure() { s.backpressure.Add(1) }

// New wraps r in a Server. The Server does not take ownership of r;
// close the Reader after the Server is quiesced.
func New(r archive.Reader, opts Options) *Server {
	s := &Server{r: r, workers: opts.workers()}
	s.viewer, _ = archive.As[archive.Viewer](r)
	var ok bool
	if s.batcher, ok = archive.As[archive.BatchReader](r); !ok {
		s.batcher = archive.NewSet(r.Stats().Backend, []archive.Reader{r}, nil)
	}
	s.epoch.Store(1)
	if opts.CacheDocs > 0 {
		s.cache = lru.New(opts.CacheDocs)
	}
	s.pool.New = func() any {
		b := make([]byte, 0, 4096)
		return &b
	}
	return s
}

// purgeOnCycle empties the cache when the epoch crosses an aliasing
// cycle boundary (every 2^24 bumps — unreachable in practice, cheap to
// guard). A request already in flight across the boundary may re-insert
// one pre-boundary entry afterwards; it would need to survive another
// full cycle of bumps under eviction pressure to ever alias, so the guard is
// sound for any real workload.
func (s *Server) purgeOnCycle(epoch uint64) {
	if s.cache != nil && epoch%epochCycle == 0 {
		s.cache.Purge()
	}
}

// BumpEpoch advances the cache epoch, logically emptying the document
// cache. Unlike a point eviction this closes the fetch/mutate race: a
// request that read its document under the old epoch publishes its
// cache entry under the old key, which no future request can ever hit.
// Callers that mutate the backing store in place (rlzd after a delete)
// use it so stale bytes cannot be cached past the mutation.
func (s *Server) BumpEpoch() { s.purgeOnCycle(s.epoch.Add(1)) }

// Epoch returns the current cache epoch, starting at 1 and incremented
// by every BumpEpoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// NumDocs returns the number of documents in the underlying archive.
func (s *Server) NumDocs() int { return s.r.NumDocs() }

// cacheKey maps (epoch, id) to a cache key; ok is false for ids too
// large to tag with an epoch, which simply bypass the cache.
func cacheKey(epoch uint64, id int) (key uint64, ok bool) {
	if uint64(id) >= 1<<epochShift {
		return 0, false
	}
	return epoch<<epochShift | uint64(id), true
}

// GetAppend retrieves document id, appending its text to dst — the
// zero-steady-state-allocation path. Each concurrent caller must pass
// its own dst.
//
// Statistics: hits and misses count only successfully served documents
// (hits + misses == requests - errors on a cached Server), and the
// latency histogram likewise covers successful requests, so a hot
// failing id range shows up in Errors rather than skewing hit rate or
// p50/p99.
func (s *Server) GetAppend(dst []byte, id int) ([]byte, error) {
	start := time.Now()
	s.requests.Add(1)
	// One epoch read per request: a request that began before a bump
	// publishes its cache entry under the dead epoch's key.
	key, cacheable := cacheKey(s.epoch.Load(), id)
	base := len(dst)
	if s.cache != nil && cacheable {
		if out, ok := s.cache.GetAppend(dst, key); ok {
			s.hits.Add(1)
			s.served.Add(int64(len(out) - base))
			s.lat.observe(time.Since(start))
			return out, nil
		}
	}
	dst, err := s.r.GetAppend(dst, id)
	if err != nil {
		s.errors.Add(1)
		return dst, err
	}
	doc := dst[base:]
	if s.cache != nil && cacheable {
		s.misses.Add(1)
		s.cache.Put(key, doc)
	}
	s.decoded.Add(int64(len(doc)))
	s.served.Add(int64(len(doc)))
	s.lat.observe(time.Since(start))
	return dst, nil
}

// viewCall is the state of one zero-copy Do with the func the viewer
// calls, built once per pooled value: a closure made per call would
// escape through the Viewer interface, with what it captures.
type viewCall struct {
	fn     func(doc []byte) error
	n      int
	called bool
	visit  func(doc []byte) error
}

// Get retrieves document id into a fresh caller-owned buffer.
func (s *Server) Get(id int) ([]byte, error) {
	return s.GetAppend(nil, id)
}

// Do retrieves document id and passes its bytes to fn. When the backend
// serves the document zero-copy (archive.Viewer — a memory-mapped raw
// archive or collection segment), doc is a slice of the mapping: no
// read, no copy, no allocation, and the document cache is bypassed
// entirely (caching would add a copy to a read that costs none).
// Otherwise the document goes through the normal cached GetAppend path
// into a pooled scratch buffer. Either way doc is only valid during fn —
// copy what must outlive the call. This is the per-request path HTTP
// handlers use to serve documents without a per-request allocation.
func (s *Server) Do(id int, fn func(doc []byte) error) error {
	if s.viewer != nil {
		start := time.Now()
		vc, _ := s.views.Get().(*viewCall)
		if vc == nil {
			vc = new(viewCall)
			vc.visit = func(doc []byte) error {
				vc.called, vc.n = true, len(doc)
				return vc.fn(doc)
			}
		}
		vc.fn, vc.called, vc.n = fn, false, 0
		handled, err := s.viewer.View(id, vc.visit)
		called, n := vc.called, vc.n
		vc.fn = nil
		s.views.Put(vc)
		if handled {
			s.requests.Add(1)
			if !called {
				// The backend failed before producing the document.
				s.errors.Add(1)
				return err
			}
			// The document was served; an error from fn itself is the
			// caller's, not the backend's. Zero-copy reads bypass the
			// cache but still count as misses so hits+misses keeps
			// covering every successfully served document.
			if s.cache != nil {
				// Whether an id is cacheable does not depend on the epoch.
				if _, cacheable := cacheKey(0, id); cacheable {
					s.misses.Add(1)
				}
			}
			s.decoded.Add(int64(n))
			s.served.Add(int64(n))
			s.lat.observe(time.Since(start))
			return err
		}
	}
	bufp := s.pool.Get().(*[]byte)
	buf, err := s.GetAppend((*bufp)[:0], id)
	if err == nil {
		err = fn(buf)
	}
	*bufp = buf[:0]
	s.pool.Put(bufp)
	return err
}

// Result is one document of a batch response.
type Result struct {
	ID   int
	Data []byte // nil when Err != nil; caller-owned otherwise
	Err  error
}

// GetBatch retrieves every id. The cache is consulted first and the
// misses go down in ONE backend batch (archive.BatchReader; a reader
// without one is wrapped in a one-member archive.Set, which decodes its
// documents in turn). The block backend dedupes documents sharing a
// compressed block and decodes each distinct block at most once across
// at most Options.Workers concurrent workers. The returned slice always
// has len(ids) results in request order; failures (out-of-range ids,
// decode errors) are reported per document in Result.Err, so one bad id
// does not void the rest of the batch.
//
// Every document is copied into one arena, which the results share:
// each Data is a slice of it capped at its own end. The documents are
// gathered in a pooled scratch buffer (the backend calls visit from a
// single goroutine, so it needs no lock), span holding each one's
// bounds, and copied into the arena in one exact-size allocation once
// all are in: a batch allocates its results, its bookkeeping and its
// bytes once, whatever the number of documents. (The scratch buffer
// keeps the size of the largest batch it served while it stays pooled.)
func (s *Server) GetBatch(ids []int) []Result {
	n := len(ids)
	out := make([]Result, n)
	if n == 0 {
		return out
	}
	epoch := s.epoch.Load()
	start := time.Now()
	s.requests.Add(int64(n))
	bufp := s.pool.Get().(*[]byte) // visit shares *bufp, not a boxed copy
	work := make([]int, 4*n)
	// miss holds positions in ids, missIds the backend ids in parallel.
	miss, missIds, span := work[:0:n], work[n:n:2*n], work[2*n:]
	// Resolve cache hits up front; only misses reach the backend.
	for i, id := range ids {
		out[i] = Result{ID: id}
		if s.cache != nil {
			if key, cacheable := cacheKey(epoch, id); cacheable {
				off, hit := len(*bufp), false
				if *bufp, hit = s.cache.GetAppend(*bufp, key); hit {
					span[2*i], span[2*i+1] = off, len(*bufp)
					s.hits.Add(1)
					s.served.Add(int64(len(*bufp) - off))
					continue
				}
			}
		}
		miss = append(miss, i)
		missIds = append(missIds, id)
	}
	if len(miss) > 0 {
		s.batcher.GetBatch(missIds, s.workers, func(j int, doc []byte, err error) {
			i := miss[j]
			if err != nil {
				out[i].Err = err
				s.errors.Add(1)
				return
			}
			off := len(*bufp)
			*bufp = append(*bufp, doc...)
			span[2*i], span[2*i+1] = off, len(*bufp)
			if s.cache != nil {
				if key, cacheable := cacheKey(epoch, out[i].ID); cacheable {
					s.misses.Add(1)
					s.cache.Put(key, doc)
				}
			}
			s.decoded.Add(int64(len(doc)))
			s.served.Add(int64(len(doc)))
		})
	}
	arena := append([]byte(nil), *bufp...)
	*bufp = (*bufp)[:0]
	s.pool.Put(bufp)
	for i := range out {
		if out[i].Err == nil {
			end := span[2*i+1]
			out[i].Data = arena[span[2*i]:end:end]
		}
	}
	// One latency observation for the whole batch: the batch is the
	// request unit at this layer (rlzd's /docs endpoint), and per-id
	// shares of a concurrent decode are not meaningful.
	s.lat.observe(time.Since(start))
	return out
}

// Stats snapshots the Server's counters. The latency quantiles are
// upper-bound estimates (power-of-two buckets).
func (s *Server) Stats() Stats {
	var cached, capacity int
	if s.cache != nil {
		cached, capacity = s.cache.Len(), s.cache.Capacity()
	}
	return Stats{
		Backend:      string(s.r.Stats().Backend),
		Epoch:        s.epoch.Load(),
		NumDocs:      s.r.NumDocs(),
		ArchiveSize:  s.r.Size(),
		Requests:     s.requests.Load(),
		Errors:       s.errors.Load(),
		Backpressure: s.backpressure.Load(),
		CacheHits:    s.hits.Load(),
		CacheMisses:  s.misses.Load(),
		CachedDocs:   cached,
		CacheCap:     capacity,
		BytesDecoded: s.decoded.Load(),
		BytesServed:  s.served.Load(),
		P50Nanos:     int64(s.lat.quantile(0.50)),
		P99Nanos:     int64(s.lat.quantile(0.99)),
	}
}

// String summarizes the stats for logs.
func (st Stats) String() string {
	return fmt.Sprintf("%s: %d reqs (%d errs), cache %d/%d (%d docs), %d bytes decoded, %d served, p50 %v p99 %v",
		st.Backend, st.Requests, st.Errors, st.CacheHits, st.CacheHits+st.CacheMisses,
		st.CachedDocs, st.BytesDecoded, st.BytesServed,
		time.Duration(st.P50Nanos), time.Duration(st.P99Nanos))
}

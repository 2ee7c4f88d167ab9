// Command rlzd serves documents from any archive built by cmd/rlz over
// HTTP. The backend (rlz, block or raw) is auto-detected from the
// archive's magic bytes; a collection directory — grown by rlz append or
// bulk-built by rlz build -shards, the two are one format — is served
// through the same flag. Requests are served concurrently through
// internal/serve's goroutine-safe Server, with an optional hot-document
// LRU cache and live read statistics, over cleartext HTTP/1.1 and 1.0 by
// the daemon's own connection loop (conn.go: keep-alive, pipelining,
// HEAD, chunked and 100-continue request bodies; no TLS, HTTP/2 or
// hijacking).
//
// Serving a live collection additionally enables the write API: new
// documents are appended over HTTP and readable immediately, deletes
// tombstone ids, and a background compactor (or POST /compact) drains
// the append path into RLZ segments without a restart — the documents
// keep their ids and bytes across the swap.
//
// Appends are durable by default: each is written once, to the
// collection's open segment, which is its log, and acknowledged once a
// flush of that segment that started after the write has returned; one
// flush is shared by every append in flight (group commit).
// -async-appends acknowledges without waiting for the flush instead.
// When the bytes appended but not yet flushed would pass
// -wal-max-pending, writes answer 429 Too Many Requests with
// Retry-After — back off and retry.
//
// Usage:
//
//	rlzd -a archive.rlz [-addr :8087] [-cache 1024] [-workers 0]
//	rlzd -a collectiondir/ [-compact-after 10000] [-async-appends]
//	     [-wal-max-pending 8MB] [-append-batch 256]
//
// Endpoints:
//
//	GET    /doc/{id}      one document, verbatim bytes
//	POST   /docs          batch retrieval; JSON {"ids":[1,2,3]} in,
//	                      per-document data/error JSON out
//	GET    /stats         serve.Stats as JSON, plus for a collection the
//	                      generation breakdown ("live": every segment's
//	                      path, backend, documents and size)
//	POST   /append        raw document bytes in, JSON {"generation":G,"id":N}
//	                      out (live collections only)
//	POST   /append/batch  JSON {"docs":[base64,...]} in, JSON {"ids":[...]}
//	                      out; one commit window for the whole batch
//	                      (live collections only)
//	DELETE /doc/{id}      tombstone a document (live collections only)
//	POST   /compact       run a compaction now (live collections only)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/serve"
	"rlz/internal/units"
)

func main() {
	fs := flag.NewFlagSet("rlzd", flag.ExitOnError)
	arc := fs.String("a", "", "archive path (required; backend auto-detected)")
	addr := fs.String("addr", ":8087", "listen address")
	cacheDocs := fs.Int("cache", 1024, "hot-document LRU capacity in documents; 0 disables")
	workers := fs.Int("workers", 0, "batch fan-out per request; 0 means GOMAXPROCS")
	maxBatch := fs.Int("max-batch", 4096, "largest accepted POST /docs batch")
	maxDoc := fs.String("max-doc", "16MB", "largest accepted POST /append document (and /append/batch body)")
	asyncAppends := fs.Bool("async-appends", false, "acknowledge appends before they are durable; loses the tail on crash (live collections)")
	walMaxPending := fs.String("wal-max-pending", "8MB", "bytes appended but not yet flushed before appends answer 429 (live collections)")
	appendBatch := fs.Int("append-batch", 256, "largest accepted POST /append/batch document count")
	compactAfter := fs.Int("compact-after", 0, "auto-compact when this many documents await compaction; 0 disables (live collections)")
	compactEvery := fs.Duration("compact-every", 0, "auto-compact on this interval when work is pending; 0 disables (live collections)")
	adapt := fs.Bool("adapt", false, "compactions learn: evict cold dictionary regions, re-sample from drained documents, adopt on trial gain (live collections)")
	adaptEvict := fs.Float64("adapt-evict", 0, "fraction of dictionary regions an adaptive re-sample evicts (0 means 0.25)")
	adaptGain := fs.Float64("adapt-gain", 0, "relative encoded-byte saving required to adopt an adaptive dictionary (0 means 0.02)")
	fs.Parse(os.Args[1:])
	if *arc == "" {
		fmt.Fprintln(os.Stderr, "rlzd: -a is required")
		fs.Usage()
		os.Exit(2)
	}
	maxDocBytes, err := units.ParseSize(*maxDoc)
	if err != nil {
		log.Fatalf("rlzd: -max-doc: %v", err)
	}
	walPendingBytes, err := units.ParseSize(*walMaxPending)
	if err != nil {
		log.Fatalf("rlzd: -wal-max-pending: %v", err)
	}

	// One open: a live collection takes the daemon's durability and
	// admission configuration, anything else goes through archive.Open.
	var (
		r   archive.Reader
		col *collection.Collection
	)
	if isCollection(*arc) {
		col, err = collection.Open(*arc, collection.Options{
			Async:         *asyncAppends,
			MaxWALPending: int64(walPendingBytes),
		})
		r = col
	} else {
		r, err = archive.Open(*arc)
	}
	if err != nil {
		log.Fatalf("rlzd: %v", err)
	}
	srv := serve.New(r, serve.Options{CacheDocs: *cacheDocs, Workers: *workers})
	st := r.Stats()
	log.Printf("rlzd: serving %s (%s, %d docs, %d bytes) on %s",
		*arc, backendLabel(r), st.NumDocs, st.Size, *addr)

	// SIGINT and SIGTERM end the daemon in order: stop accepting, let
	// in-flight requests and a running auto-compaction finish, then close
	// the archive — for a live collection that cuts the open segment's
	// zero fill and flushes it, so the next start has nothing to cut.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	copts := collection.CompactOptions{Adapt: *adapt, EvictFraction: *adaptEvict, MinRatioGain: *adaptGain}
	var compactor sync.WaitGroup
	if col != nil && (*compactAfter > 0 || *compactEvery > 0) {
		compactor.Add(1)
		go func() {
			defer compactor.Done()
			autoCompact(ctx, col, *compactAfter, *compactEvery, copts)
		}()
	}

	var ln net.Listener
	if ln, err = net.Listen("tcp", *addr); err == nil {
		httpSrv := newServer(ln, newMux(srv, col, muxOptions{maxBatch: *maxBatch, maxDoc: int64(maxDocBytes), appendBatch: *appendBatch, compact: copts}))
		served := make(chan error, 1)
		go func() { served <- httpSrv.serve() }()
		select {
		case err = <-served: // the listener broke
		case <-ctx.Done():
			log.Printf("rlzd: shutting down")
			err = httpSrv.shutdown(30 * time.Second)
		}
	}
	stop() // the auto-compactor outlives a failed listener otherwise
	compactor.Wait()
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatalf("rlzd: %v", err)
	}
}

// isCollection reports whether path names a live collection: a
// directory, or the manifest inside it, whose manifest reads as one.
func isCollection(path string) bool {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, collection.ManifestName)
	}
	_, err := collection.ReadManifest(path)
	return err == nil
}

// autoCompact is the daemon's background compactor: every tick it
// checks how many documents await compaction (open segment plus raw
// sealed segments) and drains them into RLZ segments when the threshold
// is met. Compaction runs concurrently with serving — reads route
// through the old generation until the new one is published atomically.
// It returns when ctx is done, after any compaction it has running.
func autoCompact(ctx context.Context, col *collection.Collection, after int, every time.Duration, opts collection.CompactOptions) {
	tick := every
	if tick <= 0 {
		tick = time.Second
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		info := col.Info()
		if info.PendingDocs == 0 {
			continue
		}
		if after > 0 && info.PendingDocs < after {
			continue
		}
		res, err := col.Compact(opts)
		if err != nil {
			// A compaction already running (a POST /compact, or a long
			// auto pass outliving the tick) is expected contention, not
			// an error worth a log line per tick.
			if !errors.Is(err, collection.ErrCompacting) {
				log.Printf("rlzd: auto-compaction: %v", err)
			}
			continue
		}
		if res.Compacted > 0 {
			note := ""
			if res.Relearned {
				note = fmt.Sprintf(", adopted dictionary %d", res.Dict)
			}
			log.Printf("rlzd: auto-compacted %d segments (%d docs, %d -> %d bytes%s), generation %d",
				res.Compacted, res.Docs, res.BytesBefore, res.BytesAfter, note, res.Generation)
		}
	}
}

// Package shard is the bulk loader for a collection: it partitions a
// document source across N sealed segments built in parallel against one
// shared prepared dictionary and publishes them as one generation of an
// ordinary internal/collection directory (see Create). What it writes is
// a collection in every respect: it opens through archive.Open as a
// *collection.Collection, takes appends and deletes, and compacts against
// the dictionary the build used.
//
// Global document ids are segment order: shard 0's documents come first,
// then shard 1's, and so on. With contiguous-range routing that equals
// append order; with round-robin routing it is a deterministic
// permutation of it (document i of the input lands at shard i%N, local
// id i/N).
package shard

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/faultfs"
	"rlz/internal/rlz"
)

// maxShards bounds the shard count Create accepts: far above any sane
// deployment, it keeps a typo from opening a million segment files.
const maxShards = 1 << 20

// Policy selects how Create routes documents to shards.
type Policy int

const (
	// RoundRobin routes document i to shard i % N: shards stay balanced
	// without knowing the collection size, at the cost of served global
	// ids being a (deterministic) permutation of append order — shard
	// 0's documents serve first.
	RoundRobin Policy = iota
	// Ranges routes contiguous runs of Options.DocsPerShard documents to
	// each shard in turn (overflow past N*DocsPerShard stays on the last
	// shard), so served global ids equal append order.
	Ranges
)

// Options configures a sharded build.
type Options struct {
	// Shards is the shard count; 0 and 1 both mean a single shard.
	Shards int
	// Policy selects the routing scheme; the zero value is RoundRobin.
	Policy Policy
	// DocsPerShard is the contiguous run length under the Ranges policy
	// (required > 0 there, ignored for RoundRobin).
	DocsPerShard int
	// Archive configures the per-shard backend writers. Create divides
	// Archive.Workers across the shard pipelines, so it bounds the
	// build's total concurrency whenever Workers >= Shards; below that,
	// every shard still gets its one mandatory worker and the effective
	// total is Shards. The output is byte-identical for a fixed shard
	// count at any worker count.
	//
	// For the RLZ backend each shard-build worker runs its own
	// rlz.Factorizer, all sharing the one dictionary index and k-gram
	// ladder carried by the shared PreparedDict.
	Archive archive.Options
}

func (o Options) shards() int {
	if o.Shards < 1 {
		return 1
	}
	return o.Shards
}

func (o Options) route(i int) int {
	n := o.shards()
	switch o.Policy {
	case Ranges:
		s := i / o.DocsPerShard
		if s >= n {
			s = n - 1
		}
		return s
	default:
		return i % n
	}
}

// dividedArchive returns the per-shard archive options: the worker
// budget (Archive.Workers, defaulting to GOMAXPROCS) split across the
// shards, each getting at least one worker, so N shard pipelines never
// multiply the requested concurrency N-fold. For the RLZ backend it
// also indexes the shared global dictionary once, so N shards do not
// each rebuild the same suffix array.
func (o Options) dividedArchive() archive.Options {
	aopts := o.Archive
	workers := aopts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if aopts.Workers = workers / o.shards(); aopts.Workers < 1 {
		aopts.Workers = 1
	}
	if aopts.ResolvedBackend() == archive.RLZ && aopts.PreparedDict == nil && len(aopts.Dict) > 0 {
		// On error leave PreparedDict nil; each shard build then reports
		// the same dictionary error through the normal path.
		if d, err := rlz.NewDictionary(aopts.Dict); err == nil {
			aopts.PreparedDict = d
		}
	}
	return aopts
}

func (o Options) check() error {
	if o.Policy == Ranges && o.DocsPerShard <= 0 {
		return fmt.Errorf("shard: Ranges policy requires DocsPerShard > 0")
	}
	if o.shards() > maxShards {
		return fmt.Errorf("shard: %d shards exceeds limit %d", o.Shards, maxShards)
	}
	return nil
}

// closeSource closes a Closer DocSource (e.g. a WARC stream).
func closeSource(src archive.DocSource) error {
	if c, ok := src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// chanSource adapts a channel of documents to archive.DocSource, feeding
// one shard's build pipeline from the router goroutine.
type chanSource struct{ ch <-chan archive.Doc }

func (s chanSource) Next() (archive.Doc, error) {
	d, ok := <-s.ch
	if !ok {
		return archive.Doc{}, io.EOF
	}
	return d, nil
}

// Create streams src into a fresh collection under dir: N sealed
// segments are built in parallel (each its own ordered pipeline, with
// Options.Archive.Workers divided across them), fed by a single router
// goroutine applying the configured policy, and published as generation
// 1 of the collection — segment i of the manifest is shard i, with no
// open segment. An RLZ build also writes the dictionary every shard was
// factorized against as dictionary generation 1 and records it on each
// segment, so a later compaction of the directory reuses it.
//
// Every file reaches its name through the collection's own publish
// sequence (collection.PublishDict, collection.BuildSegment), and the
// manifest is written only after all of them: a crash leaves either no
// manifest or a complete collection. The segment bytes are identical for
// a fixed shard count at any worker count, because routing is
// position-determined and every per-shard build is itself deterministic.
//
// A directory that already holds a manifest is refused, as
// collection.Init refuses it. On error nothing this build created is left
// behind and no manifest is written.
func Create(dir string, src archive.DocSource, opts Options) (archive.BuildResult, error) {
	return create(faultfs.OS, dir, src, opts)
}

// create is Create over an explicit filesystem, so the crash sweep in
// the tests reaches every publish step.
func create(fs faultfs.FS, dir string, src archive.DocSource, opts Options) (archive.BuildResult, error) {
	var res archive.BuildResult
	// Like archive.Build, Create owns src: a Closer source is closed on
	// every path, including these early failures, so callers handing
	// over a WARC stream never leak its descriptor.
	err := opts.check()
	if err == nil {
		err = collection.Claim(dir)
	}
	if err != nil {
		closeSource(src)
		return res, err
	}
	n := opts.shards()
	aopts := opts.dividedArchive()
	m := &collection.Manifest{Generation: 1, NextSeq: uint64(n) + 1, Segments: make([]collection.Segment, n)}
	// remove undoes the build: the segments and the dictionary that were
	// published, then the directory if that emptied it. Failed segment
	// builds have removed their own temporaries.
	remove := func() {
		for _, s := range m.Segments {
			if s.Path != "" {
				_ = fs.Remove(filepath.Join(dir, s.Path))
			}
		}
		for _, d := range m.Dicts {
			_ = fs.Remove(filepath.Join(dir, d.Path))
		}
		_ = os.Remove(dir) // fails (and is ignored) unless that left it empty
	}
	// The dictionary is published before any segment is built against
	// it, the order an adopting compaction keeps.
	var dictID uint64
	if aopts.ResolvedBackend() == archive.RLZ && aopts.PreparedDict != nil {
		d, err := collection.PublishDict(fs, dir, 1, aopts.PreparedDict.Bytes())
		if err != nil {
			closeSource(src)
			remove()
			return res, err
		}
		m.Dicts, dictID = []collection.Dict{d}, d.ID
	}

	chans := make([]chan archive.Doc, n)
	errs := make([]error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		chans[i] = make(chan archive.Doc, 8)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Segments[i], errs[i] = collection.BuildSegment(fs, dir, uint64(i)+1, chanSource{chans[i]}, aopts)
			m.Segments[i].Dict = dictID
			if errs[i] != nil {
				failed.Store(true)
				// Keep draining so the router never blocks on a dead shard.
				for range chans[i] {
				}
			}
		}(i)
	}

	var srcErr error
	for i := 0; ; i++ {
		// One failed shard voids the whole set; stop feeding the healthy
		// ones instead of compressing the rest of the collection into
		// files that are about to be deleted.
		if failed.Load() {
			break
		}
		d, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			srcErr = err
			break
		}
		res.RawBytes += int64(len(d.Body))
		chans[opts.route(i)] <- d
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if cerr := closeSource(src); cerr != nil && srcErr == nil {
		srcErr = cerr
	}

	firstErr := srcErr
	for _, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		if firstErr = collection.WriteManifest(fs, dir, m); firstErr != nil {
			// A failed directory fsync can leave the manifest renamed into
			// place; it must not outlive the segments it names.
			_ = fs.Remove(filepath.Join(dir, collection.ManifestName))
		}
	}
	if firstErr != nil {
		remove()
		return res, firstErr
	}
	for _, s := range m.Segments {
		res.Docs += s.Docs
	}
	return res, nil
}

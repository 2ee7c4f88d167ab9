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
	"rlz/internal/rlz"
)

// Policy selects how the writer routes appended documents to shards.
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
	// Archive configures the per-shard backend writers. Both NewWriter
	// and Create divide Archive.Workers across the shard pipelines, so
	// it bounds the build's total concurrency whenever Workers >=
	// Shards; below that, every shard still gets its one mandatory
	// worker and the effective total is Shards. The output is
	// byte-identical for a fixed shard count at any worker count.
	//
	// For the RLZ backend, Archive.Factorizer tunes the fast
	// factorization engine of every shard's pipeline: each shard-build
	// worker runs its own rlz.Factorizer, all sharing the one dictionary
	// index and k-gram ladder carried by the shared PreparedDict.
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
		// On error leave PreparedDict nil; each shard writer then
		// reports the same dictionary error through the normal path.
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

// ShardFileName returns the conventional file name of shard i.
func ShardFileName(i int) string {
	return fmt.Sprintf("shard-%04d", i)
}

// Writer routes appended documents across N per-shard archive.Writers
// and implements archive.Writer itself, so any code that builds a
// single archive builds a shard set unchanged. Appends are sequential;
// Create is the parallel build path. Close finalizes every shard and
// writes the manifest.
//
// Append returns the document's append-order index. Under the Ranges
// policy that equals the global id the set serves; under RoundRobin the
// served id is the manifest-order permutation (see the package comment).
type Writer struct {
	dir    string
	opts   Options
	ws     []archive.Writer
	files  []*os.File
	total  int
	closed bool
}

// NewWriter creates dir (if needed), one shard file per shard, and a
// backend writer on each.
func NewWriter(dir string, opts Options) (*Writer, error) {
	if err := opts.check(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	clearStaleSet(dir)
	n := opts.shards()
	aopts := opts.dividedArchive()
	w := &Writer{dir: dir, opts: opts, ws: make([]archive.Writer, n), files: make([]*os.File, n)}
	for i := 0; i < n; i++ {
		f, err := os.Create(filepath.Join(dir, ShardFileName(i)))
		if err != nil {
			w.abort()
			return nil, err
		}
		w.files[i] = f
		if w.ws[i], err = archive.NewWriter(f, aopts); err != nil {
			w.abort()
			return nil, err
		}
	}
	return w, nil
}

// removeSet deletes the shard files and any manifest under dir — the
// failure cleanup. Removing the manifest matters when a build fails on
// top of an existing shard set: the old shard files have already been
// overwritten, so a surviving stale manifest would misdescribe garbage.
func removeSet(dir string, n int) {
	for i := 0; i < n; i++ {
		_ = os.Remove(filepath.Join(dir, ShardFileName(i)))
	}
	_ = os.Remove(filepath.Join(dir, ManifestName))
	_ = os.Remove(dir) // fails (and is ignored) unless that left it empty
}

// clearStaleSet removes a previous build's manifest and the shard files
// it lists, so rebuilding a directory with a smaller shard count cannot
// leave orphaned shards from the wider old set. Best effort: with no
// (or an unreadable) manifest there is nothing trustworthy to clear
// beyond the manifest file itself.
func clearStaleSet(dir string) {
	mpath := filepath.Join(dir, ManifestName)
	if m, err := ReadManifest(mpath); err == nil {
		for _, s := range m.Shards {
			_ = os.Remove(filepath.Join(dir, s.Path))
		}
	}
	_ = os.Remove(mpath)
}

// abort releases every open backend writer and file and removes the
// partial shard set. Closing the writers matters even though their
// output is being deleted: block-backend writers spawn their pipeline
// goroutines at construction, and only Close drains them.
func (w *Writer) abort() {
	for _, aw := range w.ws {
		if aw != nil {
			_ = aw.Close()
		}
	}
	for _, f := range w.files {
		if f != nil {
			_ = f.Close()
		}
	}
	removeSet(w.dir, len(w.files))
	w.closed = true
}

// Append routes one document to its shard, returning its append-order
// index (sequential from 0).
func (w *Writer) Append(doc []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("shard: append to closed writer")
	}
	if _, err := w.ws[w.opts.route(w.total)].Append(doc); err != nil {
		return 0, err
	}
	w.total++
	return w.total - 1, nil
}

// NumDocs returns the number of documents appended so far.
func (w *Writer) NumDocs() int { return w.total }

// Close finalizes every shard archive and publishes the set (see
// publish). On error the partial shard files are removed and no manifest
// is written.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	var firstErr error
	for i, aw := range w.ws {
		if err := aw.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := w.files[i].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		w.files[i] = nil
	}
	w.closed = true
	if firstErr != nil {
		removeSet(w.dir, len(w.ws))
		return firstErr
	}
	docs := make([]int, len(w.ws))
	for i, aw := range w.ws {
		docs[i] = aw.NumDocs()
	}
	return publish(w.dir, w.opts, docs)
}

// publish makes a freshly built set durable and then visible: every
// shard file (conventional names, the given per-shard document counts)
// is fsynced before the manifest naming them is published atomically —
// whose directory fsync also covers the shard files' own directory
// entries — so a crash never leaves a manifest pointing at empty or torn
// shards. On error the set is removed.
//
//rlz:publishes
func publish(dir string, opts Options, docs []int) error {
	m := &Manifest{Backend: opts.Archive.ResolvedBackend()}
	for i, d := range docs {
		m.Shards = append(m.Shards, ShardInfo{Path: ShardFileName(i), Docs: d})
	}
	err := syncShards(dir, m)
	if err == nil {
		err = WriteManifest(filepath.Join(dir, ManifestName), m)
	}
	if err != nil {
		removeSet(dir, len(docs))
	}
	return err
}

// syncShards fsyncs every (already written and closed) shard file m
// names under dir.
func syncShards(dir string, m *Manifest) error {
	for _, s := range m.Shards {
		f, err := os.OpenFile(filepath.Join(dir, s.Path), os.O_RDWR, 0)
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
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

// Create streams src into a complete shard set under dir: N per-shard
// archive builds run in parallel (each its own ordered pipeline, with
// Options.Archive.Workers divided across them), fed by a single router
// goroutine applying the configured policy. The resulting bytes are
// identical for a fixed shard count at any worker count, because routing
// is position-determined and every per-shard build is itself
// deterministic. On error the partial shard files are removed and no
// manifest is written.
func Create(dir string, src archive.DocSource, opts Options) (archive.BuildResult, error) {
	var res archive.BuildResult
	// Like archive.Build, Create owns src: a Closer source is closed on
	// every path, including these early failures, so callers handing
	// over a WARC stream never leak its descriptor.
	if err := opts.check(); err != nil {
		closeSource(src)
		return res, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		closeSource(src)
		return res, err
	}
	clearStaleSet(dir)
	n := opts.shards()
	aopts := opts.dividedArchive()
	chans := make([]chan archive.Doc, n)
	results := make([]archive.BuildResult, n)
	errs := make([]error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		chans[i] = make(chan archive.Doc, 8)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = archive.Create(filepath.Join(dir, ShardFileName(i)), chanSource{chans[i]}, aopts)
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
	if firstErr != nil {
		// archive.Create removed its own file on failure; remove the
		// shards that succeeded (and any stale manifest from a previous
		// build of this directory) so no partial set remains.
		removeSet(dir, n)
		return res, firstErr
	}

	docs := make([]int, n)
	for i := range results {
		docs[i] = results[i].Docs
		res.Docs += results[i].Docs
	}
	return res, publish(dir, opts, docs)
}

// RemoveArchive deletes a shard set: every shard file the manifest
// lists, the manifest itself, and the directory if that left it empty.
func RemoveArchive(dir string) error {
	mpath := filepath.Join(dir, ManifestName)
	m, err := ReadManifest(mpath)
	if err != nil {
		return err
	}
	var firstErr error
	for _, s := range m.Shards {
		if err := os.Remove(filepath.Join(dir, s.Path)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := os.Remove(mpath); err != nil && firstErr == nil {
		firstErr = err
	}
	_ = os.Remove(dir) // fails (and is ignored) unless empty
	return firstErr
}

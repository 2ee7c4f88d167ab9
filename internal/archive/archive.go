// Package archive is the backend-neutral layer over this repository's
// three document stores: RLZ archives (internal/store), block-compressed
// baselines (internal/blockstore) and the uncompressed ascii baseline
// (internal/rawstore). The paper's evaluation is a head-to-head between
// exactly these backends, and every caller — the CLI, the experiment
// harness, the examples — wants to build and read them interchangeably.
//
// The layer has four parts:
//
//   - Writer and Reader: the common build/access interface every backend
//     implements. On-disk formats are owned by the backend packages and
//     are byte-for-byte unchanged by going through this layer.
//   - A format registry keyed by the 4-byte header magic, so Open and
//     OpenBytes auto-detect which backend wrote an archive.
//   - DocSource: a streaming document iterator, so collections are built
//     from corpus walks, WARC files or generators without materializing
//     a [][]byte of the whole collection.
//   - Build: the streaming, parallel build pipeline (ordered commits via
//     internal/pipeline), shared by all backends.
package archive

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rlz/internal/mmapio"
)

// Backend names one of the storage schemes the paper evaluates.
type Backend string

const (
	// RLZ is the paper's contribution: documents factorized against a
	// sampled static dictionary (internal/store).
	RLZ Backend = "rlz"
	// Block is the baseline of §2.2: fixed-size blocks, each compressed
	// independently with an adaptive coder (internal/blockstore).
	Block Backend = "block"
	// Raw is the "ascii" baseline: uncompressed documents with a
	// document map (internal/rawstore).
	Raw Backend = "raw"
	// Live labels a generational live collection (internal/collection):
	// an updatable set of segments that may mix the backends above. It
	// is a Stats identity, not a build target — ParseBackend rejects it.
	Live Backend = "live"
)

// ParseBackend resolves a backend name as used by the CLI's -backend flag.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case RLZ, Block, Raw:
		return Backend(s), nil
	}
	return "", fmt.Errorf("archive: unknown backend %q (want rlz, block or raw)", s)
}

// Writer is the build side of a backend: append documents, close to
// finalize the on-disk structure. Writers are not safe for concurrent
// use; Build layers parallelism on top with ordered commits.
type Writer interface {
	// Append stores one document, returning its ID (sequential from 0).
	Append(doc []byte) (int, error)
	// NumDocs returns the number of documents appended so far.
	NumDocs() int
	// Close finalizes the archive (maps, footer). The underlying
	// io.Writer is owned by the caller and is not closed.
	Close() error
}

// Reader is the access side: random access to any document by ID.
//
// Concurrency contract: every implementation MUST be safe for concurrent
// use by multiple goroutines without external locking, provided each
// concurrent GetAppend call passes a distinct dst buffer. Concretely:
// readers hold no mutable per-call state, underlying storage is accessed
// only via io.ReaderAt.ReadAt, and any internal caching or lazily built
// state is internally synchronized. internal/serve builds its serving
// layer on this guarantee, and the archive test suite enforces it under
// the race detector for every registered backend (shared reader, 8+
// goroutines, overlapping ids).
type Reader interface {
	// Get retrieves document id.
	Get(id int) ([]byte, error)
	// GetAppend retrieves document id, appending its text to dst — the
	// zero-steady-state-allocation path.
	GetAppend(dst []byte, id int) ([]byte, error)
	// Extent returns the absolute archive extent a Get for id physically
	// reads (the whole containing block for Block archives) — what the
	// paper's disk model charges for.
	Extent(id int) (off, n int64, err error)
	// NumDocs returns the number of documents in the archive.
	NumDocs() int
	// Size returns the total archive size in bytes.
	Size() int64
	// Stats reports backend identity and backend-specific figures.
	Stats() Stats
	// Close releases the underlying file if the Reader owns one.
	Close() error
}

// Stats describes an open archive. Backend-specific fields are zero for
// the other backends.
type Stats struct {
	Backend Backend
	NumDocs int
	Size    int64

	// RLZ archives.
	DictLen int    // dictionary size in bytes
	Codec   string // pair codec name (ZZ, ZV, ...)

	// Block archives.
	Algorithm string // block compressor name
	NumBlocks int    // compressed block count
}

// Searcher is the optional search interface. No single-file backend
// implements it: a Set does, by decoding each document of each member
// once and scanning it, and so does everything assembled from a Set (a
// collection). Callers discover it with As[Searcher] and wrap a bare
// reader in a one-member Set.
type Searcher interface {
	// FindAll collects occurrences of pattern, up to limit (0 = all).
	FindAll(pattern []byte, limit int) ([]Match, error)
	// GetRange retrieves bytes [from, to) of document id, clamped to
	// the document — by decoding only the factors under the window
	// where the owning member is an RLZ archive, by decode-and-slice
	// otherwise.
	GetRange(id, from, to int) ([]byte, error)
}

// Match locates one pattern occurrence: document ID and byte offset.
type Match struct {
	Doc    int
	Offset int
}

// As finds the first reader in r's Unwrap chain that is a T — the one
// way to discover an optional capability (Searcher, Viewer, BatchReader)
// or a concrete reader (*collection.Collection, *Set) behind the
// file-owning wrapper Open returns, which a plain type assertion would
// miss.
func As[T any](r Reader) (T, bool) {
	for {
		if t, ok := r.(T); ok {
			return t, true
		}
		u, ok := r.(interface{ Unwrap() Reader })
		if !ok {
			var zero T
			return zero, false
		}
		r = u.Unwrap()
	}
}

// Viewer is the optional zero-copy access interface: backends whose
// storage is memory-mapped (raw archives opened by Open on a platform
// with mmap support, a live collection's segments) serve document bytes
// as sub-slices of the mapping — no read syscall, no copy, no
// allocation.
//
// View is deliberately callback-shaped: doc is only valid during fn
// (it may be a slice of a mapping that is unmapped once the reader — or
// the collection generation — it belongs to is retired), so fn must
// copy whatever outlives the call. ok reports whether the zero-copy
// path handled the request at all: ok=false means the backend cannot
// serve this document zero-copy (no mapping, or a compressed backend)
// and the caller should fall back to GetAppend; err is only meaningful
// when ok is true.
type Viewer interface {
	View(id int, fn func(doc []byte) error) (ok bool, err error)
}

// BatchReader is the optional batched-retrieval interface: backends
// whose storage amortizes across documents (the block backend, where
// documents sharing a block share one decompression; a collection
// routing per segment) retrieve a whole id set with at most workers
// concurrent decodes, calling visit exactly once per index of ids —
// in backend-chosen order, from a single goroutine. doc is only valid
// during visit; failures are reported per index so one bad id does not
// void the batch.
type BatchReader interface {
	GetBatch(ids []int, workers int, visit func(i int, doc []byte, err error))
}

// OpenFunc opens one backend's archive from r covering size bytes.
type OpenFunc func(r io.ReaderAt, size int64) (Reader, error)

type entry struct {
	magic   string
	backend Backend
	open    OpenFunc
}

var registry []entry

// RegisterFormat adds a backend to the magic-dispatch table used by Open.
// magic must be the archive's first 4 header bytes. Built-in backends
// register themselves; future backends (new codecs, sharded stores) add
// themselves here and every Open-based caller picks them up.
func RegisterFormat(magic string, backend Backend, open OpenFunc) {
	if len(magic) != 4 {
		panic(fmt.Sprintf("archive: magic %q must be 4 bytes", magic))
	}
	for _, e := range registry {
		if e.magic == magic {
			panic(fmt.Sprintf("archive: magic %q registered twice", magic))
		}
	}
	registry = append(registry, entry{magic: magic, backend: backend, open: open})
}

// DirManifest is the well-known file name multi-file formats place in
// their archive directory; Open(dir) looks for it, so a collection opens
// from either its directory or its manifest path.
const DirManifest = "MANIFEST"

// pathEntry is one multi-file format: archives that span several files
// (e.g. a collection manifest plus its segment archives) and therefore
// must be opened from a path, not a ReaderAt.
type pathEntry struct {
	magic string
	name  string
	open  func(path string) (Reader, error)
}

var pathRegistry []pathEntry

// RegisterPathFormat adds a multi-file format to Open's dispatch table.
// magic must be the manifest file's first 4 bytes; name is used in error
// messages. Unlike RegisterFormat, the opener receives the manifest's
// path so it can resolve sibling files. OpenReaderAt and OpenBytes reject
// these magics with a pointer to Open, since a lone ReaderAt cannot reach
// the other files.
func RegisterPathFormat(magic, name string, open func(path string) (Reader, error)) {
	if len(magic) != 4 {
		panic(fmt.Sprintf("archive: magic %q must be 4 bytes", magic))
	}
	for _, e := range registry {
		if e.magic == magic {
			panic(fmt.Sprintf("archive: magic %q registered twice", magic))
		}
	}
	for _, e := range pathRegistry {
		if e.magic == magic {
			panic(fmt.Sprintf("archive: magic %q registered twice", magic))
		}
	}
	pathRegistry = append(pathRegistry, pathEntry{magic: magic, name: name, open: open})
}

// ErrUnknownFormat is wrapped by Open when no registered backend claims
// the archive's magic.
var ErrUnknownFormat = fmt.Errorf("archive: unknown format")

// ErrNeedsPath is wrapped by OpenReaderAt and OpenBytes when the magic
// belongs to a multi-file format, which only Open(path) can assemble.
var ErrNeedsPath = fmt.Errorf("archive: format spans multiple files; open it by path")

// OpenReaderAt auto-detects the backend from the header magic and opens
// the archive.
func OpenReaderAt(r io.ReaderAt, size int64) (Reader, error) {
	var magic [4]byte
	if size < int64(len(magic)) {
		return nil, fmt.Errorf("%w: %d bytes is smaller than any archive header", ErrUnknownFormat, size)
	}
	if _, err := r.ReadAt(magic[:], 0); err != nil {
		return nil, fmt.Errorf("archive: reading magic: %w", err)
	}
	for _, e := range registry {
		if string(magic[:]) == e.magic {
			return e.open(r, size)
		}
	}
	for _, e := range pathRegistry {
		if string(magic[:]) == e.magic {
			return nil, fmt.Errorf("%w: %s archives", ErrNeedsPath, e.name)
		}
	}
	known := make([]string, 0, len(registry))
	for _, e := range registry {
		known = append(known, fmt.Sprintf("%q (%s)", e.magic, e.backend))
	}
	return nil, fmt.Errorf("%w: magic % x; known: %v", ErrUnknownFormat, magic, known)
}

// OpenBytes auto-detects and opens an archive held in memory.
func OpenBytes(data []byte) (Reader, error) {
	return OpenReaderAt(bytes.NewReader(data), int64(len(data)))
}

// fileReader owns the file backing a Reader opened by Open, plus the
// memory mapping serving its reads when the platform supports one.
type fileReader struct {
	Reader
	f *os.File
	m *mmapio.Mapping // nil when reads go through the file
}

// Unwrap exposes the backend reader to As.
func (r *fileReader) Unwrap() Reader { return r.Reader }

func (r *fileReader) Close() error {
	// Backend first (it may flush per-reader state), then the mapping its
	// reads were served from, then the file.
	err := r.Reader.Close()
	if r.m != nil {
		if merr := r.m.Close(); err == nil {
			err = merr
		}
	}
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open opens an archive, auto-detecting its backend. Single-file
// archives dispatch on their magic bytes (see OpenFile); multi-file
// formats (see RegisterPathFormat) dispatch on their manifest's magic
// and open their sibling files themselves. A directory path is resolved
// to the DirManifest file inside it, so a collection opens from its
// directory. Close the Reader to release the underlying files.
func Open(path string) (Reader, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, DirManifest)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// A file too short for a magic falls through to openFile's report.
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err == nil {
		for _, e := range pathRegistry {
			if string(magic[:]) == e.magic {
				_ = f.Close()
				return e.open(path)
			}
		}
	}
	return openFile(f)
}

// OpenFile opens one single-file archive, memory-mapped where the
// platform allows — the member opener a multi-file format (a
// collection) uses for its parts. Multi-file magics
// are refused with ErrNeedsPath, so a hostile manifest naming another
// manifest (or itself) as a member fails cleanly instead of recursing.
func OpenFile(path string) (Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return openFile(f)
}

// openFile opens the archive in f, taking ownership of f.
func openFile(f *os.File) (Reader, error) {
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	// Serve through a memory mapping when the platform has one: backend
	// reads become copies out of the page cache (no syscall per read), and
	// backends that understand the mapping's Slice method (rawstore's
	// zero-copy views, the blockstore's compressed-block reads) skip even
	// that copy. Any mmap failure — unsupported platform, unmappable
	// filesystem — falls back to pread on the file, same semantics.
	fr := &fileReader{f: f}
	var src io.ReaderAt = f
	if m, err := mmapio.Map(f, st.Size()); err == nil {
		fr.m, src = m, m
	}
	if fr.Reader, err = OpenReaderAt(src, st.Size()); err != nil {
		if fr.m != nil {
			_ = fr.m.Close()
		}
		_ = f.Close()
		return nil, err
	}
	return fr, nil
}

package collection

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"rlz/internal/archive"
	"rlz/internal/faultfs"
	"rlz/internal/mmapio"
	"rlz/internal/rawstore"
)

// openSegment is the collection's write head: a rawstore archive still
// being written — header and one checksummed frame per document, no
// footer yet. The frames make the one file self-delimiting, so after a
// crash rawstore.Recover finds the last whole document from the file
// alone: reopening sees either the collection before or after any given
// append, never a torn document.
//
// Sealing finalizes the rawstore footer in place, turning the very same
// file into an ordinary immutable raw archive with zero data movement;
// the manifest swap then moves it from OpenSeg to Segments.
//
// To the read side it is one more archive.Reader (and archive.Viewer):
// the last member of the view's segment set, whose document count grows.
//
// Concurrency: append is called with the collection's write lock held
// (one writer). The Reader methods are called lock-free by readers and
// take their extents from the rawstore.Writer, which counts a document
// only after its bytes are on the file; the bytes themselves are read
// with ReadAt, which is safe alongside the writer's sequential appends.
type openSegment struct {
	name string
	f    faultfs.File     // rawstore archive in progress
	w    *rawstore.Writer // owns the document boundaries

	// broken is set when an append or fsync failed mid-write; the
	// in-memory state no longer matches what is (durably) on the file,
	// so further appends are refused (reads of already-published
	// documents stay valid). A failed fsync in particular may have
	// discarded dirty pages — a later successful fsync would then
	// acknowledge data the kernel already dropped, so the error is
	// sticky. Reopening the collection re-runs recovery and resumes
	// cleanly.
	broken bool

	// mapping is the refcounted memory mapping of the data file's stable
	// prefix, for zero-copy views. A mapping's length is fixed at map
	// time, so the writer remaps as the file grows (see maybeRemap);
	// documents past the mapped end fall back to pread. nil on platforms
	// without mmap or when mapping failed — reads just use the file.
	mapping atomic.Pointer[segMapping]
}

// remapStep is how far the data file must grow past the mapped end
// before the writer cuts a fresh mapping. Remapping is cheap but not
// free; 1 MiB bounds it to a few dozen remaps per typical open segment.
const remapStep = 1 << 20

// segMapping is one generation of the open segment's mapping: installed
// in openSegment.mapping, pinned by each reader inside a View, unmapped
// when the last reference goes.
type segMapping struct {
	refcount
	m *mmapio.Mapping
}

// maybeRemap (re)maps the data file when unmapped or grown remapStep
// past the mapped end. Called from the single writer (collection write
// lock held) or at construction; concurrent readers keep using the old
// mapping until their refs drain. Mapping failures are silently
// tolerated — reads fall back to pread.
func (s *openSegment) maybeRemap() {
	if !mmapio.Supported() {
		return
	}
	// A handle without a real descriptor (fault injection) has no
	// zero-copy path; reads fall back to pread.
	osf := s.f.Sys()
	if osf == nil {
		return
	}
	end := s.Size()
	cur := s.mapping.Load()
	// Remap when the file doubles (so small, fresh segments become
	// viewable after a handful of appends) or grows a full step past
	// the mapped end (bounding remap frequency once the segment is big).
	if cur != nil && end-cur.m.Len() < remapStep && end < 2*cur.m.Len() {
		return
	}
	m, err := mmapio.Map(osf, end)
	if err != nil {
		return
	}
	sm := &segMapping{m: m}
	sm.init(func() { _ = m.Close() })
	s.mapping.Store(sm)
	if cur != nil {
		cur.unref()
	}
}

// View serves segment-local document id as a zero-copy slice of the
// mapping, implementing archive.Viewer; fn runs under a mapping
// reference so a concurrent remap or close cannot unmap under it.
// ok=false (document beyond the mapped prefix, no mapping, draining
// mapping) means the caller should fall back to GetAppend. doc is valid
// only during fn and only for reading.
func (s *openSegment) View(local int, fn func(doc []byte) error) (bool, error) {
	sm := s.mapping.Load()
	if sm == nil || !sm.tryRef() {
		return false, nil
	}
	defer sm.unref()
	off, n, err := s.Extent(local)
	if err != nil {
		return true, err
	}
	if off+n > sm.m.Len() {
		return false, nil
	}
	doc, err := sm.m.Slice(off, n)
	if err != nil {
		return false, nil
	}
	return true, fn(doc)
}

// segFileName returns the conventional name of segment file seq.
func segFileName(seq uint64) string {
	return fmt.Sprintf("seg-%08d", seq)
}

// createOpenSegment starts a fresh open segment in dir. The file is
// created exclusively (a leftover with the same name means NextSeq went
// backwards — fail loudly) and its header is synced before returning, so
// a manifest naming this segment never points at nothing.
func createOpenSegment(fs faultfs.FS, dir, name string) (*openSegment, error) {
	f, err := fs.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	w, err := rawstore.NewWriter(f)
	if err != nil {
		_ = f.Close()
		_ = fs.Remove(filepath.Join(dir, name))
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	s := &openSegment{name: name, f: f, w: w}
	s.maybeRemap()
	return s, nil
}

// recoverOpenSegment reopens the open segment named by the manifest and
// resumes writing after its last whole document, discarding a torn
// append or any footer a crashed seal left behind (the manifest still
// naming the segment open is the truth; the footer is simply rewritten
// at the next seal).
func recoverOpenSegment(fs faultfs.FS, dir, name string) (*openSegment, error) {
	f, err := fs.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0o644)
	if err != nil && os.IsNotExist(err) {
		// The manifest names an open segment whose file never became (or
		// stopped being) durable — e.g. a crash straddling the publish
		// whose directory fsync failed. The manifest is the truth about
		// names; materialize the segment empty rather than refusing to
		// open the collection.
		return createOpenSegment(fs, dir, name)
	}
	if err != nil {
		return nil, fmt.Errorf("collection: open segment %s: %w", name, err)
	}
	w, err := rawstore.Recover(f)
	if err != nil {
		_ = f.Close()
		if errors.Is(err, rawstore.ErrVersion1) {
			return nil, fmt.Errorf("collection: open segment %s was left by an older release (%w); run 'rlz compact' with that release, then reopen", name, err)
		}
		return nil, fmt.Errorf("collection: open segment %s: %w", name, err)
	}
	s := &openSegment{name: name, f: f, w: w}
	s.maybeRemap()
	return s, nil
}

// append stores one document, returning its segment-local id. Called
// with the collection's write lock held.
func (s *openSegment) append(doc []byte) (int, error) {
	if s.broken {
		return 0, fmt.Errorf("collection: open segment %s failed an earlier append; reopen the collection", s.name)
	}
	local, err := s.w.Append(doc)
	if err != nil {
		s.broken = true
		return 0, err
	}
	// Extend the zero-copy window once enough new bytes accumulated.
	s.maybeRemap()
	return local, nil
}

// NumDocs returns the number of readable documents.
func (s *openSegment) NumDocs() int { return s.w.NumDocs() }

// Size returns the file's current extent: header and frames.
func (s *openSegment) Size() int64 { return s.w.Size() }

// Stats labels the open segment what it is on disk: a raw archive in
// progress, i.e. documents awaiting compaction.
func (s *openSegment) Stats() archive.Stats {
	return archive.Stats{Backend: archive.Raw, NumDocs: s.NumDocs(), Size: s.Size()}
}

// Extent returns the in-file extent of segment-local document id.
//
//rlz:hotpath
func (s *openSegment) Extent(local int) (off, n int64, err error) { return s.w.Extent(local) }

// Get retrieves segment-local document id.
func (s *openSegment) Get(local int) ([]byte, error) { return s.GetAppend(nil, local) }

// GetAppend retrieves segment-local document id, appending its bytes to
// dst.
//
//rlz:hotpath
func (s *openSegment) GetAppend(dst []byte, local int) ([]byte, error) {
	off, n, err := s.Extent(local)
	if err != nil {
		return dst, err
	}
	base := len(dst)
	dst = append(dst, make([]byte, n)...)
	if _, err := s.f.ReadAt(dst[base:], off); err != nil {
		return dst[:base], fmt.Errorf("collection: reading open-segment document %d: %w", local, err)
	}
	return dst, nil
}

// seal finalizes the rawstore footer in place and syncs the file; the
// segment is then a complete immutable raw archive under its existing
// name, ready to be moved into the manifest's segment list.
func (s *openSegment) seal() error {
	if s.broken {
		return fmt.Errorf("collection: open segment %s failed an earlier append or seal; reopen the collection", s.name)
	}
	if err := s.w.Close(); err != nil {
		// A partial footer may be on the file, and a frame written after
		// it would be unreachable. Poison the segment — reopening
		// truncates the partial tail and heals.
		s.broken = true
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.broken = true
		return err
	}
	return nil
}

// sync fsyncs the file, making every append so far as durable as the
// next manifest publish. Called with the collection's write lock held.
//
// A failed fsync poisons the segment: the kernel may have discarded the
// dirty pages it could not write, so retrying the fsync later could
// succeed while the data is already gone — the segment must refuse to
// acknowledge anything further instead.
func (s *openSegment) sync() error {
	if s.broken {
		return fmt.Errorf("collection: open segment %s failed an earlier append or fsync; reopen the collection", s.name)
	}
	if err := s.f.Sync(); err != nil {
		s.broken = true
		return err
	}
	return nil
}

// Close releases the file handle; the view machinery calls it once no
// view references the segment any more (sealed and drained, or the
// collection closed).
func (s *openSegment) Close() error {
	// Retire the mapping: drop the installed reference; in-flight views
	// hold their own and the last one out unmaps.
	if sm := s.mapping.Swap(nil); sm != nil {
		sm.unref()
	}
	return s.f.Close()
}

package collection

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"rlz/internal/archive"
	"rlz/internal/coding"
	"rlz/internal/docmap"
	"rlz/internal/faultfs"
	"rlz/internal/mmapio"
	"rlz/internal/rawstore"
)

// openSegment is the collection's write head: a rawstore archive still
// being written (header + documents, no footer yet) plus a sidecar
// length log that makes the file recoverable after a crash.
//
// Write protocol per document: the bytes go to the data file first, then
// one uvarint length record to the sidecar. Recovery therefore has a
// two-sided truncation rule — a length record with no (or partial) data
// behind it is dropped, data beyond the last length record is truncated
// — and always lands on a whole-document boundary: reopening sees either
// the collection before or after any given append, never a torn
// document.
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
// synchronize on the internal RWMutex; document bytes are read with
// ReadAt, which is safe alongside the writer's sequential appends
// because appended extents are published to offsets only after their
// bytes are on the file.
type openSegment struct {
	name string
	f    faultfs.File // data file: rawstore archive in progress
	lens faultfs.File // sidecar: one uvarint per document
	w    *rawstore.Writer

	// broken is set when an append or fsync failed mid-write; the
	// in-memory state no longer matches what is (durably) on the file,
	// so further appends are refused (reads of already-published
	// documents stay valid). A failed fsync in particular may have
	// discarded dirty pages — a later successful fsync would then
	// acknowledge data the kernel already dropped, so the error is
	// sticky. Reopening the collection re-runs recovery and resumes
	// cleanly.
	broken bool

	mu      sync.RWMutex
	offsets []int64 // guarded by mu; len = count+1; offsets[0] == rawstore.HeaderSize

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
// mapping) means the caller should fall back to GetAppend.
//
//rlz:view callback
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

// lensName returns the sidecar name for an open segment data file.
func lensName(name string) string { return name + ".lens" }

// createOpenSegment starts a fresh open segment in dir. Both files are
// created exclusively (a leftover with the same name means NextSeq went
// backwards — fail loudly) and the data file's header is synced before
// returning, so a manifest naming this segment never points at nothing.
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
	lens, err := fs.OpenFile(filepath.Join(dir, lensName(name)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		_ = f.Close()
		_ = fs.Remove(filepath.Join(dir, name))
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = lens.Close()
		return nil, err
	}
	s := &openSegment{
		name:    name,
		f:       f,
		lens:    lens,
		w:       w,
		offsets: []int64{rawstore.HeaderSize},
	}
	s.maybeRemap()
	return s, nil
}

// recoverOpenSegment reopens the open segment named by the manifest,
// applying the two-sided truncation rule so writing resumes on a
// whole-document boundary. It also discards any footer a crashed seal
// left behind (the manifest still naming the segment open is the truth;
// the footer is simply rewritten at the next seal).
func recoverOpenSegment(fs faultfs.FS, dir, name string) (*openSegment, error) {
	dataPath := filepath.Join(dir, name)
	f, err := fs.OpenFile(dataPath, os.O_RDWR, 0o644)
	if err != nil && os.IsNotExist(err) {
		// The manifest names an open segment whose file never became (or
		// stopped being) durable — e.g. a crash straddling the publish
		// whose directory fsync failed. The manifest is the truth about
		// NAMES, the sidecar about contents; materialize the segment
		// empty rather than refusing to open the collection. A stale
		// sidecar without data describes nothing recoverable — drop it
		// so the O_EXCL create succeeds.
		_ = fs.Remove(filepath.Join(dir, lensName(name)))
		return createOpenSegment(fs, dir, name)
	}
	if err != nil {
		return nil, fmt.Errorf("collection: open segment %s: %w", name, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if st.Size() < rawstore.HeaderSize {
		// The header is synced before the manifest ever names a segment,
		// so a shorter file means filesystem-level loss; rebuild the
		// segment empty rather than resuming over a hole.
		if err := rebuildEmpty(fs, f, filepath.Join(dir, lensName(name))); err != nil {
			_ = f.Close()
			return nil, err
		}
		if st, err = f.Stat(); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	raw, rerr := fs.ReadFile(filepath.Join(dir, lensName(name)))
	if rerr != nil && !os.IsNotExist(rerr) {
		_ = f.Close()
		return nil, rerr
	}
	// Parse the sidecar: keep every record whose document is fully on
	// the data file; stop at the first torn record (a crashed partial
	// sidecar write) or unbacked record (length written, data lost).
	var (
		lens    []uint64
		offsets = []int64{rawstore.HeaderSize}
		end     = int64(rawstore.HeaderSize)
		keep    int // sidecar bytes covering the kept records
	)
	for pos := 0; pos < len(raw); {
		n, k, err := coding.Uvarint64(raw[pos:])
		if err != nil {
			break // torn trailing record
		}
		if end+int64(n) > st.Size() {
			break // record's document bytes never made it to disk
		}
		pos += k
		keep = pos
		end += int64(n)
		lens = append(lens, n)
		offsets = append(offsets, end)
	}
	// A missing sidecar means zero recoverable documents (it is the
	// authority on boundaries); there is nothing to truncate and the
	// O_CREATE open below recreates it.
	if rerr == nil {
		if err := fs.Truncate(filepath.Join(dir, lensName(name)), int64(keep)); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	// Drop everything past the last intact document: a torn append, or a
	// sealed footer whose manifest swap never landed.
	if st.Size() > end {
		if err := f.Truncate(end); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(end, 0); err != nil {
		_ = f.Close()
		return nil, err
	}
	lensf, err := fs.OpenFile(filepath.Join(dir, lensName(name)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	s := &openSegment{
		name:    name,
		f:       f,
		lens:    lensf,
		w:       rawstore.ResumeWriter(f, lens),
		offsets: offsets,
	}
	s.maybeRemap()
	return s, nil
}

// rebuildEmpty resets a damaged open segment to its just-created state:
// truncate, rewrite the rawstore header, empty the sidecar.
func rebuildEmpty(fs faultfs.FS, f faultfs.File, lensPath string) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	if _, err := rawstore.NewWriter(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return fs.WriteFile(lensPath, nil, 0o644)
}

// append stores one document, returning its segment-local id. Called
// with the collection's write lock held.
func (s *openSegment) append(doc []byte) (int, error) {
	if s.broken {
		return 0, fmt.Errorf("collection: open segment %s failed an earlier append; reopen the collection", s.name)
	}
	if _, err := s.w.Append(doc); err != nil {
		s.broken = true
		return 0, err
	}
	var lenBuf [10]byte
	if _, err := s.lens.Write(coding.PutUvarint64(lenBuf[:0], uint64(len(doc)))); err != nil {
		s.broken = true
		return 0, fmt.Errorf("collection: writing length record: %w", err)
	}
	s.mu.Lock()
	s.offsets = append(s.offsets, s.offsets[len(s.offsets)-1]+int64(len(doc)))
	local := len(s.offsets) - 2
	s.mu.Unlock()
	// Extend the zero-copy window once enough new bytes accumulated.
	s.maybeRemap()
	return local, nil
}

// NumDocs returns the number of readable documents.
func (s *openSegment) NumDocs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.offsets) - 1
}

// Size returns the data file's current payload end (header included).
func (s *openSegment) Size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.offsets[len(s.offsets)-1]
}

// Stats labels the open segment what it is on disk: a raw archive in
// progress, i.e. documents awaiting compaction.
func (s *openSegment) Stats() archive.Stats {
	return archive.Stats{Backend: archive.Raw, NumDocs: s.NumDocs(), Size: s.Size()}
}

// Extent returns the in-file extent of segment-local document id.
//
//rlz:hotpath
func (s *openSegment) Extent(local int) (off, n int64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if local < 0 || local >= len(s.offsets)-1 {
		return 0, 0, fmt.Errorf("%w: open-segment document %d of %d", docmap.ErrNoSuchDoc, local, len(s.offsets)-1)
	}
	return s.offsets[local], s.offsets[local+1] - s.offsets[local], nil
}

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
		// A partial footer may be on the file; appending more documents
		// after it would desync the data file from the sidecar. Poison
		// the segment — reopening truncates the partial tail and heals.
		s.broken = true
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.broken = true
		return err
	}
	return nil
}

// syncFiles fsyncs the data file and sidecar, making every append so
// far as durable as the next manifest publish. Called with the
// collection's write lock held.
//
// A failed fsync poisons the segment: the kernel may have discarded the
// dirty pages it could not write, so retrying the fsync later could
// succeed while the data is already gone — the segment must refuse to
// acknowledge anything further instead.
func (s *openSegment) syncFiles() error {
	if s.broken {
		return fmt.Errorf("collection: open segment %s failed an earlier append or fsync; reopen the collection", s.name)
	}
	if err := s.f.Sync(); err != nil {
		s.broken = true
		return err
	}
	if err := s.lens.Sync(); err != nil {
		s.broken = true
		return err
	}
	return nil
}

// Close releases both file handles; the view machinery calls it once no
// view references the segment any more (sealed and drained, or the
// collection closed).
func (s *openSegment) Close() error {
	// Retire the mapping: drop the installed reference; in-flight views
	// hold their own and the last one out unmaps.
	if sm := s.mapping.Swap(nil); sm != nil {
		sm.unref()
	}
	err := s.f.Close()
	if s.lens != nil {
		if cerr := s.lens.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

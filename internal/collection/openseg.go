package collection

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"rlz/internal/archive"
	"rlz/internal/faultfs"
	"rlz/internal/mmapio"
	"rlz/internal/rawstore"
)

// openSegment is the collection's write head and its log: a rawstore
// archive still being written — header and one checksummed frame per
// document, no footer yet. The frames make the one file self-delimiting,
// so after a crash rawstore.Recover finds the last whole document from
// the file alone: reopening sees either the collection before or after
// any given append, never a torn document.
//
// An append writes its frame once, and a durable append is acknowledged
// once a flush of the segment that started after the write has returned
// (wait). The appenders flush for each other: a waiter whose frame is
// not yet durable leads a flush when none is in flight and otherwise
// waits for the one that is, so one fdatasync covers every frame written
// before it started. The file is zero-filled a step ahead of the last
// frame (fill), so a steady-state flush overwrites blocks that already
// exist and has no size or extent change to journal. The zeros are never
// read as documents: a zero frame fails its checksum, and Recover cuts
// everything after the last frame that verifies.
//
// Sealing cuts the zero tail, finalizes the rawstore footer in place and
// flushes, turning the very same file into an ordinary immutable raw
// archive with zero data movement; the manifest swap then moves it from
// OpenSeg to Segments.
//
// To the read side it is one more archive.Reader (and archive.Viewer):
// the last member of the view's segment set, whose document count grows.
//
// Concurrency: append, seal, sync and trim are called with the
// collection's write lock held (one writer); wait is called without it,
// and flushes with no lock held at all. The Reader methods are called
// lock-free by readers and take their extents from the rawstore.Writer,
// which counts a document only after its bytes are on the file; the bytes
// themselves are read with ReadAt, which is safe alongside the writer's
// sequential appends.
type openSegment struct {
	name   string
	f      faultfs.File     // rawstore archive in progress
	w      *rawstore.Writer // owns the document boundaries
	filled int64            // bytes of the file written at least once: header, frames, zero fill (the writer's)

	mu sync.Mutex
	// flushed is signalled whenever a flush ends: its waiters return and
	// one waiter whose frame it did not cover leads the next.
	flushed  sync.Cond
	durable  int64 // guarded by mu; the file is durable through this offset
	flushing bool  // guarded by mu; a flush is in flight, with mu released
	// err is set when an append or a flush failed; the in-memory state
	// no longer matches what is (durably) on the file, so further appends
	// are refused (reads of already-published documents stay valid). A
	// failed flush in particular may have discarded dirty pages — a later
	// successful one would then acknowledge data the kernel already
	// dropped, so the error is sticky. Reopening the collection re-runs
	// recovery and resumes cleanly.
	err error // guarded by mu

	// mapping is the refcounted memory mapping of the data file's stable
	// prefix, for zero-copy views. A mapping's length is fixed at map
	// time, so the writer remaps as the file grows (see maybeRemap);
	// documents past the mapped end fall back to pread. nil on platforms
	// without mmap or when mapping failed — reads just use the file.
	mapping atomic.Pointer[segMapping]
}

// fillStep is how far past the last frame the file is zero-filled each
// time a frame runs past the blocks written so far. Reserving the blocks
// (fallocate) would not do: a flush over unwritten extents still
// journals their conversion.
const fillStep = 1 << 20

// frameHeader is the size of rawstore's per-document [u32 len][u32 crc].
const frameHeader = 8

var zeros [fillStep]byte

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
	return newOpenSegment(name, f, w), nil
}

// recoverOpenSegment reopens the open segment named by the manifest and
// resumes writing after its last whole document, discarding a torn
// append, the zero fill, or any footer a crashed seal left behind (the
// manifest still naming the segment open is the truth; the footer is
// simply rewritten at the next seal). The cut is flushed before anything
// is appended: a torn tail that outlived it could otherwise line up
// behind a new frame.
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
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return newOpenSegment(name, f, w), nil
}

// newOpenSegment resumes writing after w's last frame, which is durable.
func newOpenSegment(name string, f faultfs.File, w *rawstore.Writer) *openSegment {
	s := &openSegment{name: name, f: f, w: w, filled: w.Size(), durable: w.Size()}
	s.flushed.L = &s.mu
	s.maybeRemap()
	return s
}

// append stores one document, returning its segment-local id and the
// end of its frame, the offset wait takes. budget is for appends that
// will wait: a positive one refuses the document with ErrBackpressure
// while more than that many bytes wait for a flush, and keeps the file
// filled ahead for the flushes the waiters lead. Zero (Async mode)
// bounds nothing and fills nothing. Called with the collection's write
// lock held.
func (s *openSegment) append(doc []byte, budget int64) (local int, end int64, err error) {
	if err := s.admit(int64(len(doc)), budget); err != nil {
		return 0, 0, err
	}
	local, err = s.w.Append(doc)
	end = s.Size()
	if err == nil && budget > 0 {
		err = s.fill(end)
	}
	if err != nil {
		s.mu.Lock()
		s.fail(err)
		s.mu.Unlock()
		return 0, 0, err
	}
	// Extend the zero-copy window once enough new bytes accumulated.
	s.maybeRemap()
	return local, end, nil
}

// admit fails when the segment is poisoned, or when budget is positive
// and an n-byte document would take the bytes awaiting a flush past it
// (a document is always admitted when nothing is pending, however large).
func (s *openSegment) admit(n, budget int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	pending := s.Size() - s.durable
	if budget > 0 && pending > 0 && pending+frameHeader+n > budget {
		return fmt.Errorf("%w (%d bytes in flight)", ErrBackpressure, pending)
	}
	return nil
}

// fill zero-fills the file up to the next step when the frame ending at
// end ran past the blocks written so far, and puts the write offset back
// at end. That one flush is the expensive kind; the ones after it, until
// the next step, overwrite blocks that already exist.
func (s *openSegment) fill(end int64) error {
	if end <= s.filled {
		return nil
	}
	step := end - end%fillStep + fillStep
	if _, err := s.f.Write(zeros[:step-end]); err != nil {
		return err
	}
	if _, err := s.f.Seek(end, io.SeekStart); err != nil {
		return err
	}
	s.filled = step
	return nil
}

// fail poisons the segment with err. Called with mu held.
func (s *openSegment) fail(err error) {
	if s.err == nil {
		s.err = fmt.Errorf("collection: open segment %s failed a write or flush; reopen the collection: %w", s.name, err)
	}
}

// wait returns once the file is durable through end, flushing it itself
// when no flush is in flight: the flush it leads covers every frame
// whose write returned before it started, so concurrent appenders share
// it. It returns the poison instead once a flush or write failed short
// of end. Called without the collection's write lock.
func (s *openSegment) wait(end int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.durable < end {
		switch {
		case s.err != nil:
			return s.err
		case s.flushing:
			s.flushed.Wait()
		default:
			s.flushLocked(nil)
		}
	}
	return nil
}

// flushLocked runs prep (when non-nil) and then flushes the file, both
// with mu released, and advances durable to the frames written before
// it started; a failure poisons the segment. Called with mu held, no
// flush in flight and no poison.
func (s *openSegment) flushLocked(prep func() error) error {
	end := s.Size()
	s.flushing = true
	s.mu.Unlock()
	var err error
	if prep != nil {
		err = prep()
	}
	if err == nil {
		err = s.f.Sync()
	}
	s.mu.Lock()
	s.flushing = false
	if err != nil {
		s.fail(err)
	} else {
		s.durable = max(s.durable, end)
	}
	s.flushed.Broadcast()
	return s.err
}

// flush waits out the flush in flight, then runs prep and a flush of its
// own, so whoever seals, deletes or closes advances durable for every
// waiter: a waiter whose frame such a flush covered returns without
// touching the file, which the drained view may already have closed.
// Called with the collection's write lock held: no frame is written
// meanwhile.
func (s *openSegment) flush(prep func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.flushing {
		s.flushed.Wait()
	}
	if s.err != nil {
		return s.err
	}
	if prep == nil && s.durable >= s.Size() {
		return nil
	}
	return s.flushLocked(prep)
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
func (s *openSegment) Extent(local int) (off, n int64, err error) { return s.w.Extent(local) }

// Get retrieves segment-local document id.
func (s *openSegment) Get(local int) ([]byte, error) { return s.GetAppend(nil, local) }

// GetAppend retrieves segment-local document id, appending its bytes to
// dst.
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

// seal cuts the zero fill, finalizes the rawstore footer in place and
// flushes the file; the segment is then a complete immutable raw archive
// under its existing name, ready to be moved into the manifest's segment
// list. A failure poisons the segment — a partial footer may be on the
// file, and reopening truncates it and heals.
func (s *openSegment) seal() error {
	return s.flush(func() error {
		if err := s.f.Truncate(s.Size()); err != nil {
			return err
		}
		return s.w.Close()
	})
}

// sync flushes every frame written so far, making it as durable as the
// next manifest publish.
func (s *openSegment) sync() error { return s.flush(nil) }

// trim cuts the zero fill and flushes: a cleanly closed collection leaves
// its open segment exactly as long as its frames.
func (s *openSegment) trim() error {
	return s.flush(func() error {
		s.filled = s.Size()
		return s.f.Truncate(s.filled)
	})
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

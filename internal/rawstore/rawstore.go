// Package rawstore implements the paper's "ascii" baseline: documents are
// stored uncompressed, back to back, with a document map giving each one's
// extent. Random access reads exactly the requested document's bytes; the
// cost is storage at 100 % of the collection size.
//
// Layout:
//
//	header  magic "RAWS", version
//	payload version 2: one frame per document, [u32 len][u32 crc][doc]
//	        version 1: documents, concatenated
//	docmap  delta-vbyte document map of document lengths
//	footer  u64 docmap offset, magic "RAWE"
//
// Integers are little-endian. A frame's crc is CRC32-C over its len field
// followed by the document, so eight zero bytes are not an empty document
// and a payload needs neither docmap nor footer to be walked: Recover
// finds the boundaries of an archive whose writer died by hopping frames
// until one is short or fails its checksum. The docmap holds document
// lengths in both versions; document id sits stride*(id+1) bytes past its
// docmap offset, stride being the 8-byte frame header in version 2 and 0
// in version 1. Writers produce version 2; version 1 stays readable.
// Reads do not verify checksums.
package rawstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"rlz/internal/coding"
	"rlz/internal/docmap"
)

const (
	version     = 2
	headerMagic = "RAWS"
	footerMagic = "RAWE"
	headerSize  = 5
	footerSize  = 8 + 4
	frameSize   = 4 + 4 // version 2's per-document len + crc

	// maxKeptFrame bounds the scratch a Writer keeps between appends, so
	// one huge document does not pin its size for the Writer's life.
	maxKeptFrame = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptArchive is returned when a raw archive fails structural checks.
var ErrCorruptArchive = errors.New("rawstore: corrupt archive")

// ErrVersion1 is returned by Recover for a version-1 archive in progress:
// its payload carries no boundaries, so it cannot be resumed.
var ErrVersion1 = errors.New("rawstore: version-1 archive in progress")

// Writer builds a raw archive.
//
// Concurrency: Append and Close belong to one goroutine. NumDocs, Size,
// DocBytes and Extent may be called from others while it appends: a
// document is counted only once its frame has been handed to the
// underlying writer, which is what lets internal/collection read its open
// segment through the Writer's own document map.
type Writer struct {
	w     io.Writer
	frame []byte // scratch: one frame, so an append is one Write

	mu sync.RWMutex
	m  *docmap.Map // guarded by mu; document lengths

	closed   bool
	closeErr error
}

// NewWriter starts a raw archive on w.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := w.Write(append([]byte(headerMagic), version)); err != nil {
		return nil, fmt.Errorf("rawstore: writing header: %w", err)
	}
	return &Writer{w: w, m: docmap.New()}, nil
}

// File is what Recover needs of the file holding an archive in progress.
type File interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	Truncate(size int64) error
	Sync() error
}

// Recover resumes an archive whose writer died: f holds a header and some
// prefix of the frames, a torn frame, or a footer written by a Close that
// never counted. It keeps every frame up to the first that is short or
// fails its checksum, truncates f there, and returns a Writer positioned
// at that point, so appends continue in place and Close finalizes the
// archive over the kept documents. A file shorter than the header is
// restarted empty.
func Recover(f File) (*Writer, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if size < headerSize {
		// Callers sync the header before anything names the file, so this
		// is loss below the filesystem; there is no document to resume after.
		if err := f.Truncate(0); err != nil {
			return nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		w, err := NewWriter(f)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			return nil, err
		}
		return w, nil
	}
	ver, err := readHeader(f)
	if err != nil {
		return nil, err
	}
	if ver == 1 {
		return nil, ErrVersion1
	}
	m, err := scanFrames(f, size)
	if err != nil {
		return nil, err
	}
	w := &Writer{w: f, m: m}
	end := w.Size()
	if end < size {
		if err := f.Truncate(end); err != nil {
			return nil, err
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return nil, err
	}
	return w, nil
}

// readHeader checks the magic and returns the version, 1 or 2.
func readHeader(r io.ReaderAt) (byte, error) {
	var hdr [headerSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("rawstore: reading header: %w", err)
	}
	if string(hdr[:4]) != headerMagic {
		return 0, fmt.Errorf("%w: bad header magic", ErrCorruptArchive)
	}
	if hdr[4] != 1 && hdr[4] != version {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrCorruptArchive, hdr[4])
	}
	return hdr[4], nil
}

// scanFrames walks the version-2 payload of the size-byte file r and
// returns the lengths of the leading frames that are whole and verify.
func scanFrames(r io.ReaderAt, size int64) (*docmap.Map, error) {
	m := docmap.New()
	br := bufio.NewReaderSize(io.NewSectionReader(r, headerSize, size-headerSize), 256<<10)
	var hdr [frameSize]byte
	for left := size - headerSize; left >= frameSize; {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("rawstore: scanning frames: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:4]))
		if left -= frameSize; n > left {
			break
		}
		left -= n
		crc := crc32.Update(0, castagnoli, hdr[:4])
		for rest := n; rest > 0; {
			chunk, err := br.Peek(int(min(rest, int64(br.Size()))))
			if err != nil {
				return nil, fmt.Errorf("rawstore: scanning frames: %w", err)
			}
			crc = crc32.Update(crc, castagnoli, chunk)
			rest -= int64(len(chunk))
			_, _ = br.Discard(len(chunk)) // just peeked
		}
		if crc != binary.LittleEndian.Uint32(hdr[4:]) {
			break
		}
		m.Append(uint64(n))
	}
	return m, nil
}

// Append stores a document verbatim, returning its ID.
func (w *Writer) Append(doc []byte) (int, error) {
	if w.closed {
		return 0, errors.New("rawstore: append to closed writer")
	}
	if uint64(len(doc)) > math.MaxUint32 {
		return 0, fmt.Errorf("rawstore: document of %d bytes exceeds the frame's 32-bit length", len(doc))
	}
	b := binary.LittleEndian.AppendUint32(w.frame[:0], uint32(len(doc)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Update(crc32.Update(0, castagnoli, b), castagnoli, doc))
	b = append(b, doc...)
	if cap(b) <= maxKeptFrame {
		w.frame = b
	}
	if _, err := w.w.Write(b); err != nil {
		return 0, fmt.Errorf("rawstore: writing document: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.m.Append(uint64(len(doc))), nil
}

// NumDocs returns the number of documents appended so far.
func (w *Writer) NumDocs() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.m.Len()
}

// DocBytes returns the total length of the documents appended so far.
func (w *Writer) DocBytes() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return int64(w.m.Total())
}

// Size returns the archive's extent so far: header and frames.
func (w *Writer) Size() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return headerSize + int64(w.m.Total()) + frameSize*int64(w.m.Len())
}

// Extent returns the absolute extent of document id's bytes within the
// archive being written.
func (w *Writer) Extent(id int) (off, n int64, err error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return extent(w.m, frameSize, id)
}

// extent places document id of m in a file of the given stride.
func extent(m *docmap.Map, stride int64, id int) (off, n int64, err error) {
	o, l, err := m.Extent(id)
	if err != nil {
		return 0, 0, err
	}
	return headerSize + int64(o) + stride*int64(id+1), int64(l), nil
}

// Close writes the document map and footer. A failed footer write is
// sticky: repeated Closes report the same error rather than pretending
// the archive was finalized (a blind retry after a partial footer would
// corrupt the map offset; recover by reopening, which truncates the
// partial tail).
func (w *Writer) Close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	w.mu.RLock()
	tail := w.m.Marshal(nil)
	w.mu.RUnlock()
	tail = coding.PutU64(tail, uint64(w.Size()))
	tail = append(tail, footerMagic...)
	if _, err := w.w.Write(tail); err != nil {
		w.closeErr = fmt.Errorf("rawstore: writing footer: %w", err)
	}
	return w.closeErr
}

// Reader provides random access to a raw archive.
//
// Concurrency: all Reader methods are safe for concurrent use by
// multiple goroutines with distinct dst buffers — the document map is
// immutable after Open and documents are read straight off the
// io.ReaderAt into the caller's buffer.
type Reader struct {
	r      io.ReaderAt
	m      *docmap.Map
	stride int64 // bytes of framing before each document: frameSize, or 0 in version 1
	size   int64
}

// Open reads a raw archive's document map from r covering size bytes.
func Open(r io.ReaderAt, size int64) (*Reader, error) {
	if size < headerSize+footerSize {
		return nil, fmt.Errorf("%w: too small (%d bytes)", ErrCorruptArchive, size)
	}
	ver, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	var stride int64
	if ver == version {
		stride = frameSize
	}
	foot := make([]byte, footerSize)
	if _, err := r.ReadAt(foot, size-footerSize); err != nil {
		return nil, fmt.Errorf("rawstore: reading footer: %w", err)
	}
	if string(foot[8:]) != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorruptArchive)
	}
	mapOff64, _ := coding.U64(foot)
	mapOff := int64(mapOff64)
	if mapOff < headerSize || mapOff > size-footerSize {
		return nil, fmt.Errorf("%w: docmap offset %d out of range", ErrCorruptArchive, mapOff)
	}
	mapBytes := make([]byte, size-footerSize-mapOff)
	if _, err := r.ReadAt(mapBytes, mapOff); err != nil {
		return nil, fmt.Errorf("rawstore: reading document map: %w", err)
	}
	m, _, err := docmap.Unmarshal(mapBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptArchive, err)
	}
	if covered := int64(m.Total()) + stride*int64(m.Len()); covered != mapOff-headerSize {
		return nil, fmt.Errorf("%w: docmap covers %d bytes, payload is %d", ErrCorruptArchive, covered, mapOff-headerSize)
	}
	return &Reader{r: r, m: m, stride: stride, size: size}, nil
}

// OpenBytes opens an archive held in memory.
func OpenBytes(data []byte) (*Reader, error) {
	return Open(bytes.NewReader(data), int64(len(data)))
}

// NumDocs returns the number of documents in the archive.
func (r *Reader) NumDocs() int { return r.m.Len() }

// Size returns the total archive size in bytes.
func (r *Reader) Size() int64 { return r.size }

// Extent returns the absolute extent of document id's bytes.
func (r *Reader) Extent(id int) (off, n int64, err error) {
	return extent(r.m, r.stride, id)
}

// GetAppend retrieves document id, appending its text to dst.
func (r *Reader) GetAppend(dst []byte, id int) ([]byte, error) {
	off, n, err := r.Extent(id)
	if err != nil {
		return dst, err
	}
	base := len(dst)
	dst = append(dst, make([]byte, n)...)
	if _, err := r.r.ReadAt(dst[base:], off); err != nil {
		return dst[:base], fmt.Errorf("rawstore: reading document %d: %w", id, err)
	}
	return dst, nil
}

// Get retrieves document id.
func (r *Reader) Get(id int) ([]byte, error) {
	return r.GetAppend(nil, id)
}

// slicer is the zero-copy capability of a memory-mapped backing store
// (internal/mmapio.Mapping satisfies it); duck-typed so this package
// stays independent of how the caller produced its ReaderAt.
type slicer interface {
	Slice(off, n int64) ([]byte, error)
}

// View serves document id as a sub-slice of the backing memory mapping —
// no read, no copy, no allocation — implementing archive.Viewer. ok is
// false when the archive was not opened over a mapping (fall back to
// GetAppend). doc is a slice of the mapping: it is valid only during fn
// and only for reading; fn copies whatever must outlive the call.
func (r *Reader) View(id int, fn func(doc []byte) error) (bool, error) {
	s, ok := r.r.(slicer)
	if !ok {
		return false, nil
	}
	off, n, err := r.Extent(id)
	if err != nil {
		return true, err
	}
	doc, err := s.Slice(off, n)
	if err != nil {
		return true, fmt.Errorf("rawstore: document %d: %w", id, err)
	}
	return true, fn(doc)
}

// Close is a no-op: the Reader never owns what it reads from (whoever
// opened the file or mapping — archive.Open — closes it).
func (r *Reader) Close() error { return nil }

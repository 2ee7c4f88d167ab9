// Package warc implements a minimal WARC-inspired collection container:
// the on-disk interchange format this repository uses for web
// collections. Real evaluations of RLZ ran over TREC-style crawl files
// (GOV2, ClueWeb09); this container carries the same essentials — a URL
// key and a body per record — with a format simple enough to stream,
// concatenate and randomly sample.
//
// Format, per record:
//
//	"WREC" magic (4 bytes)
//	vbyte  URL length, URL bytes
//	vbyte  body length, body bytes
//
// Records are concatenated with no global header, so files can be built
// by appending and merged with cat. A Reader streams records without
// loading the file; a Writer writes them.
package warc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"rlz/internal/coding"
)

var magic = [4]byte{'W', 'R', 'E', 'C'}

// MaxURLLen and MaxBodyLen bound single-record allocations when reading
// untrusted files.
const (
	MaxURLLen  = 1 << 16
	MaxBodyLen = 1 << 30
)

// ErrCorrupt is returned for structurally invalid record data.
var ErrCorrupt = errors.New("warc: corrupt record")

// Record is one document: its URL key and body.
type Record struct {
	URL  string
	Body []byte
}

// Writer appends records to an output stream.
type Writer struct {
	w   *bufio.Writer
	buf []byte
}

// NewWriter returns a Writer on w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one record.
func (w *Writer) Write(rec Record) error {
	if len(rec.URL) > MaxURLLen {
		return fmt.Errorf("warc: URL of %d bytes exceeds limit", len(rec.URL))
	}
	if len(rec.Body) > MaxBodyLen {
		return fmt.Errorf("warc: body of %d bytes exceeds limit", len(rec.Body))
	}
	w.buf = w.buf[:0]
	w.buf = append(w.buf, magic[:]...)
	w.buf = coding.PutUvarint32(w.buf, uint32(len(rec.URL)))
	w.buf = append(w.buf, rec.URL...)
	w.buf = coding.PutUvarint32(w.buf, uint32(len(rec.Body)))
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	_, err := w.w.Write(rec.Body)
	return err
}

// Flush commits buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams records from an input.
type Reader struct {
	r   *bufio.Reader
	hdr [4]byte
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Read returns the next record, or io.EOF cleanly at end of input. The
// returned body is freshly allocated and owned by the caller.
func (r *Reader) Read() (Record, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if r.hdr != magic {
		return Record{}, fmt.Errorf("%w: bad magic % x", ErrCorrupt, r.hdr)
	}
	urlLen, err := r.uvarint(MaxURLLen, "URL length")
	if err != nil {
		return Record{}, err
	}
	url, err := readExact(r.r, int(urlLen), "URL")
	if err != nil {
		return Record{}, err
	}
	bodyLen, err := r.uvarint(MaxBodyLen, "body length")
	if err != nil {
		return Record{}, err
	}
	body, err := readExact(r.r, int(bodyLen), "body")
	if err != nil {
		return Record{}, err
	}
	return Record{URL: string(url), Body: body}, nil
}

// allocChunk bounds how much readExact grows its buffer per read, so a
// forged length prepays nothing: memory is committed only as fast as
// the input actually delivers bytes.
const allocChunk = 64 << 10

// readExact reads exactly n bytes from r into a fresh buffer, growing
// it chunk by chunk. A record claiming a gigabyte body but carrying
// three bytes costs one chunk, not a gigabyte — the allocation is
// clamped by the input actually available.
func readExact(r io.Reader, n int, what string) ([]byte, error) {
	buf := make([]byte, 0, min(n, allocChunk))
	for len(buf) < n {
		grow := min(n-len(buf), allocChunk)
		start := len(buf)
		buf = append(buf, make([]byte, grow)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
		}
	}
	return buf, nil
}

func (r *Reader) uvarint(limit uint32, what string) (uint32, error) {
	var buf [coding.MaxVByteLen32]byte
	for i := range buf {
		b, err := r.r.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
		}
		buf[i] = b
		if b < 0x80 {
			v, _, err := coding.Uvarint32(buf[:i+1])
			if err != nil {
				return 0, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
			}
			if v > limit {
				return 0, fmt.Errorf("%w: %s %d exceeds limit %d", ErrCorrupt, what, v, limit)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: %s: overlong varint", ErrCorrupt, what)
}

// WriteFile writes records to path.
func WriteFile(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := NewWriter(f)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

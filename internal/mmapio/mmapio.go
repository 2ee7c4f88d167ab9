// Package mmapio provides read-only memory mappings of archive files for
// the zero-copy read path. A Mapping serves reads as sub-slices of the
// kernel's page cache — no read syscall, no copy — and doubles as an
// io.ReaderAt so every Open-style entry point that takes a ReaderAt can
// sit on top of one unchanged.
//
// Platform support is build-tagged: on unix the mapping is a real
// syscall.Mmap; elsewhere Map returns ErrUnsupported and callers fall
// back to pread-style ReadAt on the file (same semantics, one syscall
// and one copy per read). Callers probe with Supported or just try Map.
//
// Lifetime rules are the caller's burden and the reason the higher
// layers expose mapped bytes only through callback-scoped views: after
// Close, every sub-slice previously returned by Slice or Bytes is
// invalid and touching one faults. The collection and serving layers
// guarantee a mapping outlives its readers via their existing
// refcounted view/handle machinery.
package mmapio

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrUnsupported is returned by Map on platforms without mmap support.
var ErrUnsupported = errors.New("mmapio: memory mapping not supported on this platform")

// Mapping is a read-only memory mapping of a file's first Len bytes.
type Mapping struct {
	data []byte
	// mapped distinguishes a real mapping (munmap on Close) from the
	// empty-file case, which needs no syscall on any platform.
	mapped bool
	closed bool
}

// Map maps the first size bytes of f read-only. Size zero succeeds with
// an empty mapping on every platform; otherwise ErrUnsupported is
// returned where mmap does not exist, and the underlying errno where the
// mapping itself fails (e.g. a file on a filesystem that cannot map).
// The mapping stays valid after f is closed.
func Map(f *os.File, size int64) (*Mapping, error) {
	if size < 0 {
		return nil, fmt.Errorf("mmapio: negative size %d", size)
	}
	if size == 0 {
		return &Mapping{}, nil
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("mmapio: size %d overflows the address space", size)
	}
	return mapFile(f, size)
}

// Supported reports whether Map can produce real mappings here.
func Supported() bool { return supported }

// Len returns the mapped length in bytes.
func (m *Mapping) Len() int64 { return int64(len(m.data)) }

// Slice returns the sub-slice [off, off+n) of the mapping with no copy.
// The slice is read-only (a write faults) and is invalidated by Close.
func (m *Mapping) Slice(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > int64(len(m.data)) {
		return nil, fmt.Errorf("mmapio: slice [%d,%d) outside mapping of %d bytes", off, off+n, len(m.data))
	}
	return m.data[off : off+n : off+n], nil
}

// ReadAt implements io.ReaderAt over the mapping: one copy, no syscall.
func (m *Mapping) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("mmapio: negative offset %d", off)
	}
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Close unmaps. Every slice previously handed out becomes invalid.
// Closing twice is a no-op.
func (m *Mapping) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	if !m.mapped {
		return nil
	}
	data := m.data
	m.data = nil
	return unmap(data)
}

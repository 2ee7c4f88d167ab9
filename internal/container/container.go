// Package container owns the frame every sealed single-file segment
// shares, whichever backend wrote it (internal/store, internal/blockstore,
// internal/rawstore):
//
//	header  4-byte magic, version byte
//	body    the backend's own header fields and payload
//	maps    the backend's maps: the paper's document map (§3.1) and, for
//	        block archives, the block locators
//	footer  u64 little-endian offset of maps, 4-byte end magic
//
// Writers build the frame with AppendHeader and AppendFooter; Open checks
// it and hands back the version and the maps, so a backend parses only
// what is its own.
package container

import (
	"errors"
	"fmt"
	"io"

	"rlz/internal/coding"
)

const (
	// HeaderSize is the bytes of magic and version that open a segment;
	// the body starts here.
	HeaderSize = 4 + 1
	// FooterSize is the bytes of map offset and end magic that close one.
	FooterSize = 8 + 4
)

// Format is one backend's frame: its magics and the newest version its
// reader takes. Every reader takes each version from 1 up.
type Format struct {
	Magic, End string
	MaxVersion byte
}

// The three sealed-segment formats. A backend's writer picks its version
// within [1, MaxVersion]; raising MaxVersion is a format change.
var (
	RLZ   = Format{Magic: "RLZA", End: "RLZE", MaxVersion: 2}
	Block = Format{Magic: "BLKS", End: "BLKE", MaxVersion: 1}
	Raw   = Format{Magic: "RAWS", End: "RAWE", MaxVersion: 2}
)

// ErrCorrupt is returned when a segment fails a structural check, in its
// frame or in what a backend parses inside it.
var ErrCorrupt = errors.New("corrupt archive")

// AppendHeader appends the magic and version that open a segment.
func (f Format) AppendHeader(dst []byte, version byte) []byte {
	return append(append(dst, f.Magic...), version)
}

// AppendFooter appends the footer that closes a segment whose maps start
// at mapOff.
func (f Format) AppendFooter(dst []byte, mapOff int64) []byte {
	return append(coding.PutU64(dst, uint64(mapOff)), f.End...)
}

// CheckHeader reads the header of a segment from r and returns its
// version, without looking at the footer (an archive still being written
// has none).
func (f Format) CheckHeader(r io.ReaderAt) (byte, error) {
	var hdr [HeaderSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("%s: reading header: %w", f.Magic, err)
	}
	if string(hdr[:4]) != f.Magic {
		return 0, fmt.Errorf("%w: bad header magic % x, want %q", ErrCorrupt, hdr[:4], f.Magic)
	}
	if v := hdr[4]; v < 1 || v > f.MaxVersion {
		return 0, fmt.Errorf("%w: %s version %d unsupported", ErrCorrupt, f.Magic, v)
	}
	return hdr[4], nil
}

// Open checks the frame of the size-byte segment in r and returns its
// version, the offset its maps start at, and the maps themselves: the
// bytes between that offset and the footer. The body is [HeaderSize,
// mapOff).
func (f Format) Open(r io.ReaderAt, size int64) (version byte, mapOff int64, maps []byte, err error) {
	if size < HeaderSize+FooterSize {
		return 0, 0, nil, fmt.Errorf("%w: %s segment of %d bytes is shorter than its header and footer", ErrCorrupt, f.Magic, size)
	}
	if version, err = f.CheckHeader(r); err != nil {
		return 0, 0, nil, err
	}
	var foot [FooterSize]byte
	if _, err := r.ReadAt(foot[:], size-FooterSize); err != nil {
		return 0, 0, nil, fmt.Errorf("%s: reading footer: %w", f.Magic, err)
	}
	if string(foot[8:]) != f.End {
		return 0, 0, nil, fmt.Errorf("%w: bad end magic % x, want %q", ErrCorrupt, foot[8:], f.End)
	}
	off, _ := coding.U64(foot[:])
	if off < HeaderSize || off > uint64(size-FooterSize) {
		return 0, 0, nil, fmt.Errorf("%w: %s map offset %d outside [%d, %d]", ErrCorrupt, f.Magic, off, HeaderSize, size-FooterSize)
	}
	mapOff = int64(off)
	maps = make([]byte, size-FooterSize-mapOff)
	if _, err := r.ReadAt(maps, mapOff); err != nil {
		return 0, 0, nil, fmt.Errorf("%s: reading maps: %w", f.Magic, err)
	}
	return version, mapOff, maps, nil
}

// Writer counts the bytes it passes to W, so a segment writer knows the
// offset its maps start at.
type Writer struct {
	W io.Writer
	N int64
}

func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.W.Write(p)
	w.N += int64(n)
	return n, err
}

// Slicer is the zero-copy capability of a memory-mapped backing store
// (internal/mmapio.Mapping satisfies it). Backends find it on the
// io.ReaderAt they were opened over by type assertion, so none depends
// on how the caller produced it.
type Slicer interface {
	Slice(off, n int64) ([]byte, error)
}

// Package docmap implements the document map shared by every store in
// this repository: the structure that, per §3.1 of the paper, "provides
// the position on disk of each encoded file". It is a monotone offset
// table over a payload region, serialized as delta-vbytes.
package docmap

import (
	"errors"
	"fmt"
	"math"

	"rlz/internal/coding"
)

// Map records the extent of each document inside a payload region.
// Offsets are cumulative: document i occupies [At(i), At(i+1)).
// The zero value is an empty map ready for Append.
type Map struct {
	offsets []uint64 // len = numDocs + 1; offsets[0] == 0
}

// ErrNoSuchDoc is returned for out-of-range document IDs.
var ErrNoSuchDoc = errors.New("docmap: no such document")

// New returns an empty map.
func New() *Map {
	return &Map{offsets: []uint64{0}}
}

// Append records a document of n encoded bytes placed directly after the
// previous one, returning its ID.
func (m *Map) Append(n uint64) int {
	if len(m.offsets) == 0 {
		m.offsets = append(m.offsets, 0)
	}
	m.offsets = append(m.offsets, m.offsets[len(m.offsets)-1]+n)
	return len(m.offsets) - 2
}

// Len returns the number of documents recorded.
func (m *Map) Len() int {
	if len(m.offsets) == 0 {
		return 0
	}
	return len(m.offsets) - 1
}

// Extent returns the payload extent [off, off+n) of document id.
func (m *Map) Extent(id int) (off, n uint64, err error) {
	if id < 0 || id >= m.Len() {
		return 0, 0, fmt.Errorf("%w: id %d of %d", ErrNoSuchDoc, id, m.Len())
	}
	return m.offsets[id], m.offsets[id+1] - m.offsets[id], nil
}

// Total returns the total payload size covered by the map.
func (m *Map) Total() uint64 {
	if len(m.offsets) == 0 {
		return 0
	}
	return m.offsets[len(m.offsets)-1]
}

// Marshal appends the serialized map to dst: a vbyte document count
// followed by vbyte deltas. Delta coding keeps the map tiny because
// documents have similar encoded sizes.
func (m *Map) Marshal(dst []byte) []byte {
	dst = coding.PutUvarint64(dst, uint64(m.Len()))
	for i := 0; i < m.Len(); i++ {
		dst = coding.PutUvarint64(dst, m.offsets[i+1]-m.offsets[i])
	}
	return dst
}

// Unmarshal parses a map serialized by Marshal, returning the map and the
// number of bytes consumed. Every extent of a map it returns lies within
// [0, Total()].
func Unmarshal(src []byte) (*Map, int, error) {
	count, pos, err := coding.Uvarint64(src)
	if err != nil {
		return nil, 0, fmt.Errorf("docmap: count: %w", err)
	}
	// Each doc needs >= 1 delta byte AFTER the varint count header.
	// Comparing against len(src) instead of the remaining bytes would let
	// a hostile footer slip an oversized count past the check and into
	// the preallocation below (~8x memory per byte of attacker input).
	if count > uint64(len(src)-pos) {
		return nil, 0, fmt.Errorf("docmap: implausible count %d with %d delta bytes", count, len(src)-pos)
	}
	m := &Map{offsets: make([]uint64, 1, count+1)}
	var total uint64
	for i := uint64(0); i < count; i++ {
		d, n, err := coding.Uvarint64(src[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("docmap: delta %d: %w", i, err)
		}
		pos += n
		if d > math.MaxUint64-total {
			// A wrapped offset would give an earlier document a negative
			// length while the total still matched the payload.
			return nil, 0, fmt.Errorf("docmap: delta %d wraps the offset past 2^64", i)
		}
		total += d
		m.offsets = append(m.offsets, total)
	}
	return m, pos, nil
}

package rlz

import (
	"encoding/binary"
	"fmt"
	"sync"

	"rlz/internal/codec"
	"rlz/internal/coding"
)

// This file is the read path: a document record and the dictionary in,
// the document's bytes out. Every cold Get, batch, scan and verify ends
// here, so it runs on pooled state and allocates nothing once warm.
//
//	record ──parse──▶ position stream ─┐ (inflated into scratch when Z)
//	                  length stream  ──┴─walk together──▶ append dictionary runs to dst
//
// For the paper's four codecs the two streams are walked in step and no
// []Factor is ever built; callers that need factors (byte ranges, the
// layer-by-layer Decode, the S and H length codings) get them in the
// scratch's reusable slice.

// decodeScratch is the pooled state of one decode: the zlib inflater,
// the buffers the Z-coded streams inflate into, and a factor slice.
// PairCodec.Encode stages its streams in the same two buffers.
type decodeScratch struct {
	zd      codec.ZlibDecoder
	pos     []byte
	lens    []byte
	factors []Factor
}

// scratchPool is the one pool behind every decode entry point, so a
// daemon's readers, scans and range reads share warm inflaters.
//
//rlz:pool get=get put=put
type scratchPool struct{ p sync.Pool }

var scratch scratchPool

func (s *scratchPool) get() *decodeScratch {
	if sc, ok := s.p.Get().(*decodeScratch); ok {
		return sc
	}
	return new(decodeScratch)
}

func (s *scratchPool) put(sc *decodeScratch) { s.p.Put(sc) }

// record is a parsed document record: its factor count and its position
// and length streams with any zlib layer removed. The streams alias the
// record or the scratch that opened it.
type record struct {
	k    int
	pos  []byte // exactly 4k bytes
	lens []byte
	used int // bytes of the source the record occupied
}

// open parses the record at the front of src, inflating Z-coded streams
// into sc. Inflation is bounded before it starts: positions to exactly
// 4k bytes, vbyte lengths to at most 5k, so a hostile blob is rejected at
// the byte that crosses the bound, whatever it would have inflated to.
//
//rlz:hotpath
func (c PairCodec) open(sc *decodeScratch, src []byte) (record, error) {
	k32, n, err := coding.Uvarint32(src)
	if err != nil {
		return record{}, fmt.Errorf("%w: count: %v", ErrCorruptEncoding, err)
	}
	rec := record{k: int(k32), used: n}
	if rec.k == 0 {
		return rec, nil
	}
	if rec.k > len(src)*256 { // each factor needs at least some encoded bytes somewhere
		return rec, fmt.Errorf("%w: implausible factor count %d", ErrCorruptEncoding, rec.k)
	}
	rec.pos, n, err = readBlob(src[rec.used:])
	if err != nil {
		return rec, fmt.Errorf("%w: position stream: %v", ErrCorruptEncoding, err)
	}
	rec.used += n
	rec.lens, n, err = readBlob(src[rec.used:])
	if err != nil {
		return rec, fmt.Errorf("%w: length stream: %v", ErrCorruptEncoding, err)
	}
	rec.used += n

	if c.Pos == PosZ {
		sc.pos, err = sc.zd.Decode(sc.pos[:0], rec.pos, 4*rec.k)
		if err != nil {
			return rec, fmt.Errorf("%w: position zlib: %v", ErrCorruptEncoding, err)
		}
		rec.pos = sc.pos
	}
	if c.Len == LenZ {
		sc.lens, err = sc.zd.DecodeUpTo(sc.lens[:0], rec.lens, coding.MaxVByteLen32*rec.k)
		if err != nil {
			return rec, fmt.Errorf("%w: length zlib: %v", ErrCorruptEncoding, err)
		}
		rec.lens = sc.lens
	}
	if len(rec.pos) != 4*rec.k {
		return rec, fmt.Errorf("%w: position stream holds %d bytes for %d factors", ErrCorruptEncoding, len(rec.pos), rec.k)
	}
	return rec, nil
}

// appendFactors appends the record's factors to factors.
func (c PairCodec) appendFactors(factors []Factor, rec record) ([]Factor, error) {
	if rec.k == 0 { // an empty document has no streams at all
		return factors, nil
	}
	base := len(factors)
	for i := 0; i < rec.k; i++ {
		factors = append(factors, Factor{Pos: binary.LittleEndian.Uint32(rec.pos[4*i:])})
	}
	if err := c.decodeLens(factors[base:], rec.lens); err != nil {
		return factors[:base], err
	}
	return factors, nil
}

// DecodeRecord appends the document encoded by the record at the front
// of src to dst — PairCodec.Decode and Dictionary.Decode in one pass,
// with the same validation — and returns the output and the number of
// record bytes consumed. On error dst is returned as it came. src is
// only read, so it may be a view of a file mapping.
//
//rlz:hotpath
func (d *Dictionary) DecodeRecord(dst []byte, c PairCodec, src []byte) ([]byte, int, error) {
	sc := scratch.get()
	rec, err := c.open(sc, src)
	var out []byte
	switch {
	case err != nil:
	case c.Len == LenV || c.Len == LenZ:
		out, err = d.copyRuns(dst, rec)
	default:
		// The word-aligned and Huffman length codings decode into whole
		// arrays; they go through the scratch's factors.
		sc.factors, err = c.appendFactors(sc.factors[:0], rec)
		if err == nil {
			out, err = d.Decode(dst, sc.factors)
		}
	}
	scratch.put(sc)
	if err != nil {
		return dst, rec.used, err
	}
	return out, rec.used, nil
}

// copyRuns walks a record's positions and vbyte lengths together,
// appending each factor's dictionary run (or literal byte) to dst.
//
//rlz:hotpath
func (d *Dictionary) copyRuns(dst []byte, rec record) ([]byte, error) {
	text := d.data
	m := uint32(len(text))
	lens := rec.lens
	off := 0
	for i := 0; i < rec.k; i++ {
		p := binary.LittleEndian.Uint32(rec.pos[4*i:])
		var l uint32
		if off < len(lens) && lens[off] < 0x80 {
			l = uint32(lens[off])
			off++
		} else {
			v, n, err := coding.Uvarint32(lens[off:])
			if err != nil {
				return dst, fmt.Errorf("%w: length %d: %v", ErrCorruptEncoding, i, err)
			}
			l = v
			off += n
		}
		if l == 0 {
			if p > 255 {
				return dst, fmt.Errorf("%w: literal value %d", ErrBadFactor, p)
			}
			dst = append(dst, byte(p))
			continue
		}
		if p >= m || l > m-p {
			return dst, fmt.Errorf("%w: (%d, %d) in dictionary of %d", ErrBadFactor, p, l, m)
		}
		dst = append(dst, text[p:p+l]...)
	}
	if off != len(lens) {
		return dst, fmt.Errorf("%w: %d trailing bytes in length stream", ErrCorruptEncoding, len(lens)-off)
	}
	return dst, nil
}

// DecodeRecordRange appends bytes [from, to) of the record's document to
// dst (see DecodeRange), decoding the factors into pooled scratch. On
// error dst is returned as it came.
func (d *Dictionary) DecodeRecordRange(dst []byte, c PairCodec, src []byte, from, to int) ([]byte, int, error) {
	sc := scratch.get()
	rec, err := c.open(sc, src)
	if err == nil {
		sc.factors, err = c.appendFactors(sc.factors[:0], rec)
	}
	var out []byte
	if err == nil {
		out, err = d.DecodeRange(dst, sc.factors, from, to)
	}
	scratch.put(sc)
	if err != nil {
		return dst, rec.used, err
	}
	return out, rec.used, nil
}

package rlz

import (
	"encoding/binary"
	"fmt"
	"sync"

	"rlz/internal/codec"
	"rlz/internal/coding"
	"rlz/internal/huffman"
)

// This file is the read path: a document record and the dictionary in,
// the document's bytes out. Every cold Get, batch, scan, range read and
// verify ends here, so it runs on pooled state and allocates nothing once
// warm.
//
//	record ──open──▶ position stream (4k bytes) ─┐
//	                 length stream   (vbytes)  ──┴─appendRuns──▶ dictionary runs appended to dst
//
// open brings every codec's record to that one form — Z streams are
// inflated, packed P positions widened, S and H lengths recoded as
// vbytes — and the run-copy kernel walks the two streams in step. No
// []Factor is built on the way; callers that hold factors
// (Dictionary.Decode, DecodeRange) stage them as the same two streams.

// decodeScratch is the pooled state of one decode: the zlib inflater,
// the buffers a record's streams are brought to kernel form in, and what
// the S and H length codings decode through. PairCodec.Encode stages its
// streams in the same two buffers, and S lengths in vals.
type decodeScratch struct {
	zd    codec.ZlibDecoder
	pos   []byte
	lens  []byte
	vals  []uint32        // Simple9's lengths, decoded or to encode
	huff  huffman.Codec   // the H coding's per-record code
	slots [lenSlots]uint8 // and its codeword lengths
}

// scratchPool is the one pool behind every decode entry point, so a
// daemon's readers, scans and range reads share warm inflaters. A value
// from get goes back through put on every path and is not used after.
type scratchPool struct{ p sync.Pool }

var scratch scratchPool

func (s *scratchPool) get() *decodeScratch {
	if sc, ok := s.p.Get().(*decodeScratch); ok {
		return sc
	}
	return new(decodeScratch)
}

func (s *scratchPool) put(sc *decodeScratch) { s.p.Put(sc) }

// record is a document record in kernel form: its factor count, its
// positions as little-endian uint32s and its lengths as vbytes. The
// streams alias the record's source or the scratch that opened it.
type record struct {
	k    int
	pos  []byte // exactly 4k bytes
	lens []byte
	used int // bytes of the source the record occupied
}

// open parses the record at the front of src and brings its streams to
// kernel form in sc. A P record's CRC is checked before either stream is
// read. Inflation is bounded before it starts: positions to exactly 4k
// bytes, vbyte lengths to at most 5k, so a hostile blob is rejected at
// the byte that crosses the bound, whatever it would have inflated to.
func (c PairCodec) open(sc *decodeScratch, src []byte) (record, error) {
	k32, n, err := coding.Uvarint32(src)
	if err != nil {
		return record{}, fmt.Errorf("%w: count: %v", ErrCorruptEncoding, err)
	}
	rec := record{k: int(k32), used: n}
	if rec.k > len(src)*256 { // each factor needs at least some encoded bytes somewhere
		return rec, fmt.Errorf("%w: implausible factor count %d", ErrCorruptEncoding, rec.k)
	}
	if rec.k > 0 {
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
	}
	if c.Pos == PosP {
		if rec.used, err = checkCRC(src, rec.used); err != nil {
			return rec, err
		}
	}
	if rec.k == 0 {
		return rec, nil
	}

	switch c.Pos {
	case PosZ:
		sc.pos, err = sc.zd.Decode(sc.pos[:0], rec.pos, 4*rec.k)
		if err != nil {
			return rec, fmt.Errorf("%w: position zlib: %v", ErrCorruptEncoding, err)
		}
		rec.pos = sc.pos
	case PosP:
		if rec.pos, err = sc.taggedPositions(rec.pos, rec.k); err != nil {
			return rec, err
		}
	}
	if len(rec.pos) != 4*rec.k {
		return rec, fmt.Errorf("%w: position stream holds %d bytes for %d factors", ErrCorruptEncoding, len(rec.pos), rec.k)
	}
	switch c.Len {
	case LenZ:
		sc.lens, err = sc.zd.DecodeUpTo(sc.lens[:0], rec.lens, coding.MaxVByteLen32*rec.k)
		if err != nil {
			return rec, fmt.Errorf("%w: length zlib: %v", ErrCorruptEncoding, err)
		}
		rec.lens = sc.lens
	case LenS:
		rec.lens, err = sc.simple9Lens(rec.lens, rec.k)
	case LenH:
		rec.lens, err = sc.huffmanLens(rec.lens, rec.k)
	}
	return rec, err
}

// stage brings factors to kernel form in sc, for the callers that hold
// a []Factor and no record.
func (sc *decodeScratch) stage(factors []Factor) record {
	sc.pos = putPositions(sc.pos[:0], factors)
	sc.lens = putLengths(sc.lens[:0], factors)
	return record{k: len(factors), pos: sc.pos, lens: sc.lens}
}

// appendFactors appends the record's factors to factors.
func (rec record) appendFactors(factors []Factor) ([]Factor, error) {
	base := len(factors)
	off := 0
	for i := 0; i < rec.k; i++ {
		l, n, err := coding.Uvarint32(rec.lens[off:])
		if err != nil {
			return factors[:base], fmt.Errorf("%w: length %d: %v", ErrCorruptEncoding, i, err)
		}
		off += n
		factors = append(factors, Factor{Pos: binary.LittleEndian.Uint32(rec.pos[4*i:]), Len: l})
	}
	if off != len(rec.lens) {
		return factors[:base], fmt.Errorf("%w: %d trailing bytes in length stream", ErrCorruptEncoding, len(rec.lens)-off)
	}
	return factors, nil
}

// DecodeRecord appends the document encoded by the record at the front
// of src to dst — PairCodec.Decode and Dictionary.Decode in one pass,
// with the same validation — and returns the output and the number of
// record bytes consumed. On error dst is returned as it came. src is
// only read, so it may be a view of a file mapping.
func (d *Dictionary) DecodeRecord(dst []byte, c PairCodec, src []byte) ([]byte, int, error) {
	sc := scratch.get()
	rec, err := c.open(sc, src)
	if err == nil {
		dst, err = d.appendRuns(dst, rec)
	}
	scratch.put(sc)
	return dst, rec.used, err
}

// DecodeRecordRange appends bytes [from, to) of the record's document to
// dst (see DecodeRange). On error dst is returned as it came.
func (d *Dictionary) DecodeRecordRange(dst []byte, c PairCodec, src []byte, from, to int) ([]byte, int, error) {
	sc := scratch.get()
	rec, err := c.open(sc, src)
	if err == nil {
		dst, err = d.appendRange(dst, rec, from, to)
	}
	scratch.put(sc)
	return dst, rec.used, err
}

// runSlack is the longest run the kernel copies as whole words, and so
// the room it needs past the run's first byte on both sides: the words
// beyond the run's end are read from dictionary text and land in dst's
// spare capacity, where the next run overwrites them.
const runSlack = 32

// appendRuns is the run-copy kernel, the one loop every decoder ends in:
// it walks a record's positions and lengths together, appending each
// factor's dictionary run (or literal byte) to dst. A call to memmove
// costs more than moving the two to five words of a typical run, so a
// run of at most runSlack bytes is copied as four 8-byte loads and
// stores wherever dictionary and destination both have runSlack bytes
// from its start; longer runs and the ends of both take append. On error
// dst is returned as it came.
func (d *Dictionary) appendRuns(dst []byte, rec record) ([]byte, error) {
	text := d.data
	m := uint32(len(text))
	lens := rec.lens
	out := dst
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
			out = append(out, byte(p))
			continue
		}
		if p >= m || l > m-p {
			return dst, fmt.Errorf("%w: (%d, %d) in dictionary of %d", ErrBadFactor, p, l, m)
		}
		if n := len(out); l <= runSlack && m-p >= runSlack && cap(out)-n >= runSlack {
			s, t := text[p:p+runSlack], out[n:n+runSlack]
			binary.LittleEndian.PutUint64(t, binary.LittleEndian.Uint64(s))
			binary.LittleEndian.PutUint64(t[8:], binary.LittleEndian.Uint64(s[8:]))
			binary.LittleEndian.PutUint64(t[16:], binary.LittleEndian.Uint64(s[16:]))
			binary.LittleEndian.PutUint64(t[24:], binary.LittleEndian.Uint64(s[24:]))
			out = out[:n+int(l)]
			continue
		}
		out = append(out, text[p:p+l]...)
	}
	if off != len(lens) {
		return dst, fmt.Errorf("%w: %d trailing bytes in length stream", ErrCorruptEncoding, len(lens)-off)
	}
	return out, nil
}

// appendRange appends bytes [from, to) of the record's document to dst,
// the range clamped to the document. Lengths are explicit, so the
// factors before the range are stepped over without touching the
// dictionary and those after it never reached; the factors that overlap
// it go through appendRuns whole, and what the first and last of them
// hold beyond the range is trimmed off afterwards.
func (d *Dictionary) appendRange(dst []byte, rec record, from, to int) ([]byte, error) {
	from = max(from, 0)
	lens := rec.lens
	first, firstOff, skip := -1, 0, 0 // the first factor in range, its place in lens, its bytes before from
	i, off, at := 0, 0, 0             // at: the document offset factor i starts at
	for ; i < rec.k && at < to; i++ {
		l, n, err := coding.Uvarint32(lens[off:])
		if err != nil {
			return dst, fmt.Errorf("%w: length %d: %v", ErrCorruptEncoding, i, err)
		}
		end := at + max(int(l), 1)
		if first < 0 && end > from {
			first, firstOff, skip = i, off, from-at
		}
		at, off = end, off+n
	}
	if first < 0 || to <= from {
		return dst, nil
	}
	out, err := d.appendRuns(dst, record{k: i - first, pos: rec.pos[4*first : 4*i], lens: lens[firstOff:off]})
	if err != nil {
		return dst, err
	}
	n := len(dst)
	keep := out[n+skip : n+skip+min(to, at)-from]
	return out[:n+copy(out[n:], keep)], nil
}

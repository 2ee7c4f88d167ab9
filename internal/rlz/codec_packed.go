package rlz

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"

	"rlz/internal/coding"
)

// Tagged position coding ("P"): a record's position stream is one tag
// byte and a body.
//
//   - Tag 1–32 is a bit width: the body holds the k positions packed at
//     that width, least significant bit first, and the last byte's unused
//     high bits are zero.
//   - Tag 33 ("repeats") is followed by a width byte w (1–32) and a token
//     stream, least significant bit first and zero-padded the same way.
//     A 0 flag is followed by a w-bit position, whose length is the next
//     entry of the length stream. A 1 flag is followed by d−1 in
//     bit-length(k) bits and r−2 in 6 bits: repeat the r factors that
//     start d factors back (r may exceed d). The length stream holds
//     the lengths of flag-0 tokens only.
//   - Tag 0 means the body is the zlib stream Z would store. It is read,
//     for records written before repeats existed, and no longer written.
//
// The encoder packs every record, finds its repeats in one greedy pass
// (repeats), and keeps the repeats form only where the whole record is
// strictly shorter that way. S and H lengths are decoded with their
// count up front; for a repeats record the reader counts the flag-0
// tokens first (flagZeroTokens). Neither form carries a checksum of its
// own, so a P record ends in a CRC32-C of all its bytes before it, and
// the reader checks that before it reads either stream.

// posTagZlib is the tag of a position stream that holds a zlib stream,
// posTagRepeats that of one in repeats form; every tag between them is
// the width of packed positions.
const (
	posTagZlib     = 0
	maxPackedWidth = 32
	posTagRepeats  = 33
)

// The widths of a repeat token's fields after its flag: d−1 takes
// bit-length(k) bits, r−2 repeatCountBits.
const (
	repeatCountBits = 6
	maxRepeat       = 1<<repeatCountBits + 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putTagged appends the P position and length streams of a record of at
// least one factor to dst: packed, or in repeats form where that makes
// the two streams strictly shorter. Both are built, the packed pair
// first; if the repeats pair wins it is moved down over it.
func (c PairCodec) putTagged(dst []byte, factors []Factor, sc *decodeScratch) []byte {
	var or uint32
	for _, f := range factors {
		or |= f.Pos
	}
	w := uint(max(bits.Len32(or), 1))
	start := len(dst)
	dst = coding.PutUvarint32(dst, uint32(1+(len(factors)*int(w)+7)/8))
	dst = packPositions(append(dst, byte(w)), factors, w)
	dst = c.putLenStream(dst, factors, sc)
	lits := sc.repeats(factors, w)
	if len(lits) == len(factors) {
		return dst
	}
	mid := len(dst)
	dst = putBlob(dst, sc.rep)
	dst = c.putLenStream(dst, lits, sc)
	if len(dst)-mid < mid-start {
		return dst[:start+copy(dst[start:], dst[mid:])]
	}
	return dst[:mid]
}

// repeats writes the repeats form of the factors' position stream, tag
// and width w included, to sc.rep, and returns the factors its flag-0
// tokens carry (in sc.lits), whose lengths make up its length stream.
// It is one greedy pass: sc.table maps each pair of consecutive factors
// to the latest place it started, and where the pair at i was seen
// before, the repeat runs as far as the factors keep matching, up to
// maxRepeat of them.
func (sc *decodeScratch) repeats(factors []Factor, w uint) []Factor {
	k := len(factors)
	size := 1 << bits.Len(uint(2*k))
	sc.table = slices.Grow(sc.table[:0], size)[:size]
	clear(sc.table)
	t := pairTable{slots: sc.table, fs: factors}
	bk := uint(bits.Len(uint(k)))
	bw := bitWriter{buf: append(sc.rep[:0], posTagRepeats, byte(w))}
	lits := sc.lits[:0]
	for i := 0; i < k; {
		j := -1
		if i+1 < k {
			j = t.swap(i)
		}
		if j < 0 {
			bw.put(uint64(factors[i].Pos)<<1, 1+w)
			lits = append(lits, factors[i])
			i++
			continue
		}
		r := 2
		for r < maxRepeat && i+r < k && factors[j+r] == factors[i+r] {
			r++
		}
		bw.put(1|uint64(i-j-1)<<1, 1+bk)
		bw.put(uint64(r-2), repeatCountBits)
		for p := i + 1; p < i+r && p+1 < k; p++ {
			t.swap(p)
		}
		i += r
	}
	sc.rep, sc.lits = bw.flush(), lits
	return lits
}

// pairTable is repeats' open-addressing hash table: each slot holds one
// plus the latest index a pair of consecutive factors started at, or 0.
// It has at least twice as many slots as there are pairs, a power of two.
type pairTable struct {
	slots []uint32
	fs    []Factor
}

// swap records that the pair of factors at i starts there and returns
// where it started before, or -1.
func (t pairTable) swap(i int) int {
	a, b := t.fs[i], t.fs[i+1]
	x := (uint64(a.Pos)|uint64(a.Len)<<32)*0x9E3779B97F4A7C15 ^ (uint64(b.Pos) | uint64(b.Len)<<32)
	mask := len(t.slots) - 1
	for h := int((x*0xC2B2AE3D27D4EB4F)>>32) & mask; ; h = (h + 1) & mask {
		s := int(t.slots[h]) - 1
		if s < 0 || t.fs[s] == a && t.fs[s+1] == b {
			t.slots[h] = uint32(i + 1)
			return s
		}
	}
}

// bitWriter appends bits to buf least significant first; a put of at
// most 33 bits always fits beside the under 32 it holds back.
type bitWriter struct {
	buf []byte
	acc uint64 // n pending bits, low first
	n   uint
}

func (b *bitWriter) put(v uint64, nb uint) {
	b.acc |= v << b.n
	for b.n += nb; b.n >= 32; b.n -= 32 {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(b.acc))
		b.acc >>= 32
	}
}

// flush appends the pending bits, zero-padded to a whole byte, and
// returns the buffer.
func (b *bitWriter) flush() []byte {
	for s := uint(0); s < b.n; s += 8 {
		b.buf = append(b.buf, byte(b.acc>>s))
	}
	return b.buf
}

// packPositions appends the factors' positions to dst at w bits each,
// least significant bit first, zero-padded to a whole byte.
func packPositions(dst []byte, factors []Factor, w uint) []byte {
	bw := bitWriter{buf: dst}
	for _, f := range factors {
		bw.put(uint64(f.Pos), w)
	}
	return bw.flush()
}

// checkCRC checks the CRC32-C that ends a P record whose other bytes are
// src[:used], and returns the record's length with it.
func checkCRC(src []byte, used int) (int, error) {
	if len(src)-used < 4 {
		return used, fmt.Errorf("%w: record CRC truncated to %d bytes", ErrCorruptEncoding, len(src)-used)
	}
	if crc32.Checksum(src[:used], castagnoli) != binary.LittleEndian.Uint32(src[used:]) {
		return used, fmt.Errorf("%w: record CRC mismatch", ErrCorruptEncoding)
	}
	return used + 4, nil
}

// taggedPositions brings a P position stream of k positions to kernel
// form: packed positions are widened to 4-byte words in sc.pos, a zlib
// stream is inflated there exactly as Z's is. A stream in repeats form
// has no kernel form; its token stream is returned as it is, with its
// position width w (0 for every other form).
func (sc *decodeScratch) taggedPositions(blob []byte, k int) (pos []byte, w uint, err error) {
	if len(blob) == 0 {
		return nil, 0, fmt.Errorf("%w: empty position stream", ErrCorruptEncoding)
	}
	tag, body := blob[0], blob[1:]
	switch {
	case tag == posTagZlib:
		pos, err := sc.zd.Decode(sc.pos[:0], body, 4*k)
		sc.pos = pos
		if err != nil {
			return nil, 0, fmt.Errorf("%w: position zlib: %v", ErrCorruptEncoding, err)
		}
		return pos, 0, nil
	case tag == posTagRepeats:
		if len(body) == 0 || body[0] == 0 || body[0] > maxPackedWidth {
			return nil, 0, fmt.Errorf("%w: repeats stream without a width of 1 to 32 bits", ErrCorruptEncoding)
		}
		return body[1:], uint(body[0]), nil
	case tag > maxPackedWidth:
		return nil, 0, fmt.Errorf("%w: position tag %d", ErrCorruptEncoding, tag)
	}
	w = uint(tag)
	if want := (k*int(w) + 7) / 8; len(body) != want {
		return nil, 0, fmt.Errorf("%w: %d packed position bytes, %d factors of %d bits need %d", ErrCorruptEncoding, len(body), k, w, want)
	}
	if pad := uint(k) * w & 7; pad != 0 && body[len(body)-1]>>pad != 0 {
		return nil, 0, fmt.Errorf("%w: non-zero padding after packed positions", ErrCorruptEncoding)
	}
	sc.pos = unpackPositions(sc.pos, body, k, w)
	return sc.pos, 0, nil
}

// unpackPositions writes the k positions packed at width w in body to
// buf as little-endian uint32s, reusing buf's storage. body holds exactly
// the bytes k positions need. Each position is one 8-byte load shifted
// into place; the last few, within 8 bytes of the end, load from a
// zero-padded copy.
func unpackPositions(buf, body []byte, k int, w uint) []byte {
	out := slices.Grow(buf[:0], 4*k)[:4*k]
	mask := uint64(1)<<w - 1
	i, bit := 0, uint(0)
	for ; i < k && int(bit>>3)+8 <= len(body); i++ {
		v := binary.LittleEndian.Uint64(body[bit>>3:]) >> (bit & 7) & mask
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
		bit += w
	}
	var tail [8]byte
	for ; i < k; i++ {
		tail = [8]byte{}
		copy(tail[:], body[bit>>3:])
		v := binary.LittleEndian.Uint64(tail[:]) >> (bit & 7) & mask
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
		bit += w
	}
	return out
}

// tokenReader reads a repeats token stream of k factors at position
// width w, least significant bit first. After refill it holds at least
// 56 bits, or every bit left, so one token of at most 1+32 or 1+32+6
// bits is always there to take unless the stream ends inside it.
type tokenReader struct {
	body  []byte
	acc   uint64 // n bits, low first; bits above n are the next bytes' or 0
	n     uint
	off   int // bytes of body loaded into acc
	k     int
	w, bk uint // bk: the bits of a repeat's d−1, bit-length(k)
}

func newTokenReader(body []byte, w uint, k int) tokenReader {
	return tokenReader{body: body, k: k, w: w, bk: uint(bits.Len(uint(k)))}
}

func (t *tokenReader) refill() {
	if t.off+8 <= len(t.body) {
		t.acc |= binary.LittleEndian.Uint64(t.body[t.off:]) << t.n
		t.off += int(63-t.n) >> 3
		t.n |= 56
		return
	}
	for t.n <= 56 && t.off < len(t.body) {
		t.acc |= uint64(t.body[t.off]) << t.n
		t.off++
		t.n += 8
	}
}

// take consumes the next nb bits, which refill has made room for, and
// reports whether the stream held them.
func (t *tokenReader) take(nb uint) (uint64, bool) {
	if t.n < nb {
		return 0, false
	}
	v := t.acc & (1<<nb - 1)
	t.acc >>= nb
	t.n -= nb
	return v, true
}

// next reads the token at factor i: a flag-0 token's position, with
// r = 0, or a repeat of r factors dist back, checked against the
// factors decoded and left.
func (t *tokenReader) next(i int) (p uint32, dist, r int, err error) {
	t.refill()
	if t.acc&1 == 0 {
		v, ok := t.take(1 + t.w)
		if !ok {
			return 0, 0, 0, errTruncatedToken(i)
		}
		return uint32(v >> 1), 0, 0, nil
	}
	v, ok := t.take(1 + t.bk + repeatCountBits)
	if !ok {
		return 0, 0, 0, errTruncatedToken(i)
	}
	dist, r = int(v>>1&(1<<t.bk-1))+1, int(v>>(1+t.bk))+2
	return 0, dist, r, repeatAt(dist, r, i, t.k)
}

// end checks that only zero padding, under a byte of it, follows the
// last token.
func (t *tokenReader) end() error {
	t.refill()
	if t.off != len(t.body) || t.n >= 8 {
		return fmt.Errorf("%w: %d bits after the last repeats token", ErrCorruptEncoding, 8*(len(t.body)-t.off)+int(t.n))
	}
	if t.acc != 0 {
		return fmt.Errorf("%w: non-zero padding after repeats tokens", ErrCorruptEncoding)
	}
	return nil
}

// repeatAt checks a repeat of r factors dist back read as factor i of k.
func repeatAt(dist, r, i, k int) error {
	if dist > i {
		return fmt.Errorf("%w: repeat %d factors back at factor %d", ErrCorruptEncoding, dist, i)
	}
	if r > k-i {
		return fmt.Errorf("%w: repeat of %d factors at factor %d of %d", ErrCorruptEncoding, r, i, k)
	}
	return nil
}

// errTruncatedToken is returned for a token stream that ends inside a
// token or before the record's last factor.
func errTruncatedToken(i int) error {
	return fmt.Errorf("%w: repeats stream truncated at factor %d", ErrCorruptEncoding, i)
}

// flagZeroTokens returns the number of flag-0 tokens in a repeats token
// stream of k factors: the number of lengths its length stream holds,
// which S and H lengths must be told before they decode.
func flagZeroTokens(toks []byte, w uint, k int) (int, error) {
	t := newTokenReader(toks, w, k)
	n := 0
	for i := 0; i < k; {
		_, _, r, err := t.next(i)
		if err != nil {
			return 0, err
		}
		if r == 0 {
			n++
			r = 1
		}
		i += r
	}
	return n, t.end()
}

// appendRepeatFactors appends the factors of a record in repeats form to
// factors, each repeat expanded into the factors it copies.
func (rec record) appendRepeatFactors(factors []Factor) ([]Factor, error) {
	base := len(factors)
	t := newTokenReader(rec.pos, rec.w, rec.k)
	off := 0
	for i := 0; i < rec.k; {
		p, dist, r, err := t.next(i)
		if err != nil {
			return factors[:base], err
		}
		if r > 0 {
			for j := base + i; j < base+i+r; j++ {
				factors = append(factors, factors[j-dist])
			}
			i += r
			continue
		}
		l, n, err := coding.Uvarint32(rec.lens[off:])
		if err != nil {
			return factors[:base], fmt.Errorf("%w: length %d: %v", ErrCorruptEncoding, i, err)
		}
		off += n
		factors = append(factors, Factor{Pos: p, Len: l})
		i++
	}
	if err := t.end(); err != nil {
		return factors[:base], err
	}
	if off != len(rec.lens) {
		return factors[:base], fmt.Errorf("%w: %d trailing bytes in length stream", ErrCorruptEncoding, len(rec.lens)-off)
	}
	return factors, nil
}

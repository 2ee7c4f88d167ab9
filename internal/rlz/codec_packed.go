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
// byte and a body. Tag 1–32 is a bit width: the body holds the k
// positions packed at that width, least significant bit first, and the
// last byte's unused high bits are zero. Tag 0 means the body is the
// zlib stream Z would store. The encoder builds both and keeps the
// shorter, a tie going to the packed form, which decodes without
// inflate. Packed positions carry no checksum of their own, so a P
// record ends in a CRC32-C of all its bytes before it, and the reader
// checks that before it reads either stream.

// posTagZlib is the tag of a position stream that holds a zlib stream;
// every other tag is the width of packed positions.
const (
	posTagZlib     = 0
	maxPackedWidth = 32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putTaggedPositions appends the P position stream of factors to dst,
// behind its vbyte length: packed, or zstream (the positions' zlib
// stream) if that is shorter.
func putTaggedPositions(dst []byte, factors []Factor, zstream []byte) []byte {
	var or uint32
	for _, f := range factors {
		or |= f.Pos
	}
	w := max(bits.Len32(or), 1)
	packed := (len(factors)*w + 7) / 8
	if packed > len(zstream) {
		dst = coding.PutUvarint32(dst, uint32(1+len(zstream)))
		return append(append(dst, posTagZlib), zstream...)
	}
	dst = coding.PutUvarint32(dst, uint32(1+packed))
	return packPositions(append(dst, byte(w)), factors, uint(w))
}

// packPositions appends the factors' positions to dst at w bits each,
// least significant bit first, zero-padded to a whole byte.
func packPositions(dst []byte, factors []Factor, w uint) []byte {
	var acc uint64 // n pending bits, low first
	var n uint
	for _, f := range factors {
		acc |= uint64(f.Pos) << n
		if n += w; n >= 32 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(acc))
			acc >>= 32
			n -= 32
		}
	}
	for b := uint(0); b < n; b += 8 {
		dst = append(dst, byte(acc>>b))
	}
	return dst
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
// stream is inflated there exactly as Z's is.
func (sc *decodeScratch) taggedPositions(blob []byte, k int) ([]byte, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("%w: empty position stream", ErrCorruptEncoding)
	}
	tag, body := blob[0], blob[1:]
	if tag == posTagZlib {
		pos, err := sc.zd.Decode(sc.pos[:0], body, 4*k)
		sc.pos = pos
		if err != nil {
			return nil, fmt.Errorf("%w: position zlib: %v", ErrCorruptEncoding, err)
		}
		return pos, nil
	}
	if tag > maxPackedWidth {
		return nil, fmt.Errorf("%w: position tag %d", ErrCorruptEncoding, tag)
	}
	w := int(tag)
	if want := (k*w + 7) / 8; len(body) != want {
		return nil, fmt.Errorf("%w: %d packed position bytes, %d factors of %d bits need %d", ErrCorruptEncoding, len(body), k, w, want)
	}
	if pad := uint(k*w) & 7; pad != 0 && body[len(body)-1]>>pad != 0 {
		return nil, fmt.Errorf("%w: non-zero padding after packed positions", ErrCorruptEncoding)
	}
	sc.pos = unpackPositions(sc.pos, body, k, uint(w))
	return sc.pos, nil
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

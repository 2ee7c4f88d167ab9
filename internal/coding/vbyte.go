// Package coding implements the low-level integer and bit codings used
// throughout the RLZ system: the variable-byte (vbyte) code the paper uses
// for factor lengths (§3.4), fixed-width 32-bit codes for factor positions,
// and a bit-granular reader/writer used by the Huffman coder.
//
// All encoders append to a caller-supplied byte slice and return the
// extended slice, following the append convention, so buffers can be reused
// across documents without allocation.
package coding

import "errors"

// Errors returned by the decoders in this package.
var (
	// ErrShortBuffer is returned when a decoder runs off the end of its
	// input before completing a codeword.
	ErrShortBuffer = errors.New("coding: short buffer")
	// ErrOverflow is returned when a vbyte codeword encodes a value that
	// does not fit in the target integer width.
	ErrOverflow = errors.New("coding: varint overflows target width")
)

// MaxVByteLen32 is the maximum number of bytes PutUvarint32 emits.
const MaxVByteLen32 = 5

// MaxVByteLen64 is the maximum number of bytes PutUvarint64 emits.
const MaxVByteLen64 = 10

// PutUvarint32 appends the vbyte encoding of v to dst and returns the
// extended slice. The code is the classic 7-bits-per-byte little-endian
// varint with the high bit set on continuation bytes; values below 128
// occupy a single byte, matching the paper's observation that the bulk of
// factor lengths fit in one byte.
func PutUvarint32(dst []byte, v uint32) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Uvarint32 decodes a vbyte value from the front of src, returning the
// value and the number of bytes consumed. It returns ErrShortBuffer if src
// ends mid-codeword and ErrOverflow if the codeword does not fit in 32 bits.
//
//rlz:untrusted
func Uvarint32(src []byte) (uint32, int, error) {
	var v uint32
	var shift uint
	for i, b := range src {
		if i == MaxVByteLen32 {
			return 0, 0, ErrOverflow
		}
		if b < 0x80 {
			if i == MaxVByteLen32-1 && b > 0x0F {
				return 0, 0, ErrOverflow
			}
			return v | uint32(b)<<shift, i + 1, nil
		}
		v |= uint32(b&0x7F) << shift
		shift += 7
	}
	return 0, 0, ErrShortBuffer
}

// PutUvarint64 appends the vbyte encoding of v to dst and returns the
// extended slice.
func PutUvarint64(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Uvarint64 decodes a 64-bit vbyte value from the front of src, returning
// the value and the number of bytes consumed.
//
//rlz:untrusted
func Uvarint64(src []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i, b := range src {
		if i == MaxVByteLen64 {
			return 0, 0, ErrOverflow
		}
		if b < 0x80 {
			if i == MaxVByteLen64-1 && b > 0x01 {
				return 0, 0, ErrOverflow
			}
			return v | uint64(b)<<shift, i + 1, nil
		}
		v |= uint64(b&0x7F) << shift
		shift += 7
	}
	return 0, 0, ErrShortBuffer
}

// PutU32 appends v to dst in little-endian order as exactly four bytes.
// This is the paper's "U" position code: a single unsigned 32-bit integer.
func PutU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U32 decodes a little-endian 32-bit value from the front of src.
//
//rlz:untrusted
func U32(src []byte) (uint32, error) {
	if len(src) < 4 {
		return 0, ErrShortBuffer
	}
	return uint32(src[0]) | uint32(src[1])<<8 | uint32(src[2])<<16 | uint32(src[3])<<24, nil
}

// PutU64 appends v to dst in little-endian order as exactly eight bytes.
func PutU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// U64 decodes a little-endian 64-bit value from the front of src.
//
//rlz:untrusted
func U64(src []byte) (uint64, error) {
	if len(src) < 8 {
		return 0, ErrShortBuffer
	}
	return uint64(src[0]) | uint64(src[1])<<8 | uint64(src[2])<<16 | uint64(src[3])<<24 |
		uint64(src[4])<<32 | uint64(src[5])<<40 | uint64(src[6])<<48 | uint64(src[7])<<56, nil
}

// AppendUvarint32s vbyte-encodes every value in vs, appending to dst.
func AppendUvarint32s(dst []byte, vs []uint32) []byte {
	for _, v := range vs {
		dst = PutUvarint32(dst, v)
	}
	return dst
}

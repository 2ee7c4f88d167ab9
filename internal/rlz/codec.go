package rlz

import (
	"errors"
	"fmt"
	"hash/crc32"

	"rlz/internal/codec"
	"rlz/internal/coding"
)

// PosCoding selects how factor positions are encoded (§3.4 of the paper).
//
// P chooses between two forms per record, not per segment, because
// neither wins everywhere. At a 1 % dictionary of the 32 MiB Gov stand-in
// zlib spends 20.8 bits per position where a fixed width needs 19, and
// 79 % of records pack. At a 0.1 % dictionary a document's factors are
// short and repeat within it, zlib's matches catch them, and packing every
// record would store 20.6 % more bytes than ZV on Gov and 22.7 % more on
// Wiki; nearly every record keeps zlib there.
type PosCoding byte

// LenCoding selects how factor lengths are encoded (§3.4 of the paper).
type LenCoding byte

// The paper's codings: U stores each position as an unsigned 32-bit
// integer; V stores each length as a vbyte; Z compresses the respective
// stream for a document with zlib at best compression (internal/codec
// owns the pooled deflaters and the inflate kernel), exploiting the
// higher-order within-document patterns the paper observed in both
// positions and lengths. S (Simple9 word-aligned packing) implements the
// alternative integer coding the paper's future-work section proposes for
// lengths.
// H (semi-static Huffman over length slots) is a further extension point
// between V and Z in decode cost.
// P stores each document's positions in whichever of two forms is
// shorter, behind a tag byte: bit-packed at the width of its largest
// position, which decodes without inflate, or Z's zlib stream; a P record
// ends in a CRC32-C of everything before it (codec_packed.go).
const (
	PosU PosCoding = 'U'
	PosZ PosCoding = 'Z'
	PosP PosCoding = 'P'
	LenV LenCoding = 'V'
	LenZ LenCoding = 'Z'
	LenS LenCoding = 'S'
	LenH LenCoding = 'H'
)

// PairCodec encodes a document's factors as the paper does: positions and
// lengths are grouped into two separate streams, each compressed with its
// own coding. The four combinations evaluated in the paper are ZZ, ZV, UZ
// and UV (position coding named first).
type PairCodec struct {
	Pos PosCoding
	Len LenCoding
}

// The four codecs evaluated throughout the paper's Tables 4, 5 and 8,
// plus the future-work Simple9 variants (US, ZS), the Huffman-coded
// lengths (UH, ZH) and tagged positions with vbyte lengths (PV).
var (
	CodecZZ = PairCodec{PosZ, LenZ}
	CodecZV = PairCodec{PosZ, LenV}
	CodecUZ = PairCodec{PosU, LenZ}
	CodecUV = PairCodec{PosU, LenV}
	CodecUS = PairCodec{PosU, LenS}
	CodecZS = PairCodec{PosZ, LenS}
	CodecUH = PairCodec{PosU, LenH}
	CodecZH = PairCodec{PosZ, LenH}
	CodecPV = PairCodec{PosP, LenV}
)

// DefaultCodec is the codec every builder and compactor uses when none
// is named: ZV's length stream, and positions that skip inflate wherever
// packing them is no longer than their zlib stream.
var DefaultCodec = CodecPV

// AllCodecs lists the paper's codecs in the order its tables present them.
var AllCodecs = []PairCodec{CodecZZ, CodecZV, CodecUZ, CodecUV}

// ExtensionCodecs lists the codecs this implementation adds beyond the
// paper: Simple9-coded lengths (the integer coding §6 proposes exploring),
// semi-static Huffman-coded lengths, and tagged positions.
var ExtensionCodecs = []PairCodec{CodecZS, CodecUS, CodecZH, CodecUH, CodecPV}

// CodecByName parses a codec name such as "ZV" or "US". Every position
// coding pairs with every length coding.
func CodecByName(name string) (PairCodec, error) {
	if len(name) != 2 {
		return PairCodec{}, fmt.Errorf("rlz: bad codec name %q", name)
	}
	c := PairCodec{PosCoding(name[0]), LenCoding(name[1])}
	if (c.Pos != PosU && c.Pos != PosZ && c.Pos != PosP) ||
		(c.Len != LenV && c.Len != LenZ && c.Len != LenS && c.Len != LenH) {
		return PairCodec{}, fmt.Errorf("rlz: bad codec name %q", name)
	}
	return c, nil
}

// String returns the paper's two-letter name for the codec.
func (c PairCodec) String() string { return string(c.Pos) + string(c.Len) }

// ErrCorruptEncoding is returned when decoding malformed factor blobs.
var ErrCorruptEncoding = errors.New("rlz: corrupt factor encoding")

// Length-stream mode flags for the Simple9 coding (first byte of the
// length stream): the normal word-aligned form and the vbyte fallback for
// out-of-range values.
const (
	lenModeSimple9 = 0
	lenModeVByte   = 1
)

// Encode appends the encoded factors of one document to dst. Layout:
//
//	vbyte  factor count k
//	vbyte  byte length of the position stream
//	       position stream (k positions; U = 4k bytes, Z = zlib blob,
//	       P = tag byte, then packed positions or a zlib blob)
//	vbyte  byte length of the length stream
//	       length stream (k lengths; V = vbytes, Z = zlib blob of vbytes)
//	u32    P only: CRC32-C of every byte above, little-endian
//
// A record of no factors is its count alone (and, under P, the CRC).
// Literal factors participate as (byte value, 0) pairs, exactly as the
// paper stores them.
func (c PairCodec) Encode(dst []byte, factors []Factor) []byte {
	start := len(dst)
	dst = coding.PutUvarint32(dst, uint32(len(factors)))
	if len(factors) > 0 {
		dst = c.putStreams(dst, factors)
	}
	if c.Pos == PosP {
		dst = coding.PutU32(dst, crc32.Checksum(dst[start:], castagnoli))
	}
	return dst
}

// putStreams appends the position and length streams of a record of at
// least one factor to dst.
func (c PairCodec) putStreams(dst []byte, factors []Factor) []byte {
	// Each stream is staged in the pooled scratch — its raw form in one
	// buffer, its deflated form (Z, P) in the other — because its byte
	// length goes in front of it; a warm build worker allocates nothing
	// here.
	sc := scratch.get()
	raw := putPositions(sc.pos[:0], factors)
	switch c.Pos {
	case PosU:
		dst = putBlob(dst, raw)
	case PosZ:
		sc.lens = codec.ZlibCompress(sc.lens[:0], raw)
		dst = putBlob(dst, sc.lens)
	case PosP:
		sc.lens = codec.ZlibCompress(sc.lens[:0], raw)
		dst = putTaggedPositions(dst, factors, sc.lens)
	}

	raw = raw[:0]
	switch c.Len {
	case LenS:
		// Simple9 needs values below 2^28; a factor that long implies a
		// dictionary over 256 MiB *and* a quarter-gigabyte match, but the
		// format stays sound by falling back to vbyte for the document,
		// flagged in the stream's first byte.
		lens := sc.vals[:0]
		for _, f := range factors {
			lens = append(lens, f.Len)
		}
		sc.vals = lens
		var err error
		if raw, err = coding.PutSimple9(append(raw, lenModeSimple9), lens); err != nil {
			raw = coding.AppendUvarint32s(append(raw[:0], lenModeVByte), lens)
		}
	case LenH:
		raw = encodeLensHuffman(raw, factors)
	default:
		raw = putLengths(raw, factors)
	}
	blob := raw
	if c.Len == LenZ {
		sc.lens = codec.ZlibCompress(sc.lens[:0], raw)
		blob = sc.lens
	}
	dst = putBlob(dst, blob)
	sc.pos = raw
	scratch.put(sc)
	return dst
}

// putPositions appends the U coding of the factors' positions to dst:
// the position stream of a record in kernel form.
func putPositions(dst []byte, factors []Factor) []byte {
	for _, f := range factors {
		dst = coding.PutU32(dst, f.Pos)
	}
	return dst
}

// putLengths appends the V coding of the factors' lengths to dst: the
// length stream of a record in kernel form.
func putLengths(dst []byte, factors []Factor) []byte {
	for _, f := range factors {
		dst = coding.PutUvarint32(dst, f.Len)
	}
	return dst
}

// putBlob appends blob behind its vbyte length — readBlob's inverse.
func putBlob(dst, blob []byte) []byte {
	dst = coding.PutUvarint32(dst, uint32(len(blob)))
	return append(dst, blob...)
}

// Decode parses one document's factors from src, appending to factors. It
// returns the factors, the number of bytes consumed, and any error. It is
// the first half of Dictionary.DecodeRecord, for callers that want the
// factors themselves.
func (c PairCodec) Decode(factors []Factor, src []byte) ([]Factor, int, error) {
	sc := scratch.get()
	rec, err := c.open(sc, src)
	if err == nil {
		factors, err = rec.appendFactors(factors)
	}
	scratch.put(sc)
	return factors, rec.used, err
}

// simple9Lens recodes an S length stream of k lengths as vbytes in
// sc.lens. The stream's first byte says whether its body is Simple9
// words or, for a document with a length Simple9 cannot hold, already
// vbytes.
func (sc *decodeScratch) simple9Lens(blob []byte, k int) ([]byte, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("%w: empty simple9 length stream", ErrCorruptEncoding)
	}
	switch mode, body := blob[0], blob[1:]; mode {
	case lenModeVByte:
		return body, nil
	case lenModeSimple9:
		vals, used, err := coding.Simple9(body, k, sc.vals[:0])
		sc.vals = vals
		if err != nil {
			return nil, fmt.Errorf("%w: simple9 lengths: %v", ErrCorruptEncoding, err)
		}
		if used != len(body) {
			return nil, fmt.Errorf("%w: %d trailing bytes in length stream", ErrCorruptEncoding, len(body)-used)
		}
		sc.lens = coding.AppendUvarint32s(sc.lens[:0], vals)
		return sc.lens, nil
	default:
		return nil, fmt.Errorf("%w: unknown length mode %d", ErrCorruptEncoding, mode)
	}
}

func readBlob(src []byte) ([]byte, int, error) {
	size, n, err := coding.Uvarint32(src)
	if err != nil {
		return nil, 0, err
	}
	if int(size) > len(src)-n {
		return nil, 0, coding.ErrShortBuffer
	}
	return src[n : n+int(size)], n + int(size), nil
}

// EncodedSize returns the size in bytes of the encoded form of factors
// under this codec without retaining the encoding.
func (c PairCodec) EncodedSize(factors []Factor) int {
	return len(c.Encode(nil, factors))
}

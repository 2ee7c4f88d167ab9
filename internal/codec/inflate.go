package codec

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// This file is the DEFLATE (RFC 1951) kernel behind ZlibDecoder: input
// and output are slices, the output slice's length is the most the
// stream may produce, and all state lives in fixed arrays inside the
// inflater, so a decode allocates nothing. It accepts exactly what
// compress/flate accepts (FuzzInflateEquivalence holds the two equal):
// stored, fixed and dynamic blocks; complete Huffman codes, or the
// degenerate one-symbol code zlib tolerates.

const (
	maxCodeLen = 15
	numLitLen  = 288 // the fixed code's alphabet; dynamic codes use at most 286
	numDist    = 32  // likewise 32 and 30
	numPrecode = 19

	// Root widths of the two-level decode tables. A code whose longest
	// codeword is shorter gets a root table of just that width, which is
	// what keeps table building cheap on the kilobyte streams RLZ stores.
	litRootBits  = 10
	distRootBits = 8
	preRootBits  = 7 // precode codewords are at most 7 bits: one level

	// Table capacities are zlib's `enough 288 10 15` and `enough 32 8 15`:
	// the most entries any complete code can need at these root widths.
	litTableSize  = 1334
	distTableSize = 402
)

// A decode table entry:
//
//	bits  0..5   bits to consume: the codeword length (less the root
//	             width inside a subtable); the root width for a pointer
//	bits  8..11  extra bits of a length or distance symbol; the index
//	             width of the subtable behind a pointer
//	bits 12..15  entry kind (zero for a length or distance symbol)
//	bits 16..31  literal byte, length or distance base, precode symbol,
//	             or a subtable's first index
const (
	entBits    = 63 // six bits, so shifts by it compile to one instruction
	entLiteral = 1 << 12
	entEOB     = 1 << 13
	entSub     = 1 << 14
	entInvalid = 1 << 15
)

var (
	litLenResults  [numLitLen]uint32
	distResults    [numDist]uint32
	precodeResults [numPrecode]uint32

	fixedLens [numLitLen + numDist]uint8

	// precodeOrder is the order in which a dynamic header stores the
	// precode's own code lengths.
	precodeOrder = [numPrecode]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

func init() {
	for sym := range litLenResults {
		switch {
		case sym < 256:
			litLenResults[sym] = uint32(sym)<<16 | entLiteral
		case sym == 256:
			litLenResults[sym] = entEOB
		case sym < 265:
			litLenResults[sym] = uint32(sym-257+3) << 16
		case sym < 285:
			extra := uint32(sym-261) / 4
			base := uint32(3) + (4+uint32(sym-265)%4)<<extra
			litLenResults[sym] = base<<16 | extra<<8
		case sym == 285:
			litLenResults[sym] = 258 << 16
		default: // 286 and 287 take part in the fixed code but never occur
			litLenResults[sym] = entInvalid
		}
	}
	for sym := range distResults {
		switch {
		case sym < 4:
			distResults[sym] = uint32(sym+1) << 16
		case sym < 30:
			extra := uint32(sym-2) / 2
			base := uint32(1) + (2+uint32(sym)%2)<<extra
			distResults[sym] = base<<16 | extra<<8
		default:
			distResults[sym] = entInvalid
		}
	}
	for sym := range precodeResults {
		precodeResults[sym] = uint32(sym) << 16
	}
	for sym := range fixedLens {
		switch {
		case sym < 144:
			fixedLens[sym] = 8
		case sym < 256:
			fixedLens[sym] = 9
		case sym < 280:
			fixedLens[sym] = 7
		case sym < numLitLen:
			fixedLens[sym] = 8
		default:
			fixedLens[sym] = 5
		}
	}
}

var (
	errInflateTruncated = errors.New("deflate stream ends early")
	errInflateTooLong   = errors.New("inflates past its declared size")
	errInflateCode      = errors.New("invalid Huffman code")
	errInflateSymbol    = errors.New("invalid symbol")
	errInflateDistance  = errors.New("match distance beyond output")
	errInflateBlock     = errors.New("invalid block header")
)

// inflater is one DEFLATE decoder's reusable state. The zero value is
// ready; it is not safe for concurrent use.
type inflater struct {
	litBits, distBits uint // root widths of the current lit and dist tables
	fixed             bool // lit and dist currently hold the fixed code

	lit    [litTableSize]uint32
	dist   [distTableSize]uint32
	pre    [1 << preRootBits]uint32
	lens   [numLitLen + numDist]uint8 // a dynamic header's code lengths
	sorted [numLitLen]uint16          // build's symbols ordered by codeword
}

// bitReader is the input side of one inflate call; it lives on that
// call's stack, so the inflater never holds on to the caller's bytes.
// bitbuf holds bitcnt valid bits of src ahead of src[in]. Bits above
// bitcnt are zero or copies of the bytes at src[in:], so a refill may OR
// the same bytes in again. bitcnt goes negative when a stream that ran
// out of input consumes bits it does not have.
type bitReader struct {
	src    []byte
	in     int
	bitbuf uint64
	bitcnt int
}

// refill tops the bit buffer up to at least 56 bits while input lasts.
func (br *bitReader) refill() {
	if br.in+8 <= len(br.src) {
		br.bitbuf |= binary.LittleEndian.Uint64(br.src[br.in:]) << (uint(br.bitcnt) & 63)
		br.in += (63 - br.bitcnt) >> 3
		br.bitcnt |= 56
		return
	}
	for br.bitcnt <= 56 && br.in < len(br.src) {
		br.bitbuf |= uint64(br.src[br.in]) << (uint(br.bitcnt) & 63)
		br.in++
		br.bitcnt += 8
	}
}

// take consumes and returns the next n <= 16 bits. The caller checks
// bitcnt for exhaustion once it has taken what it needs.
func (br *bitReader) take(n uint) uint32 {
	v := uint32(br.bitbuf) & (1<<n - 1)
	br.bitbuf >>= n
	br.bitcnt -= int(n)
	return v
}

// inflate decodes the DEFLATE stream at the front of src into out, whose
// length is the most the stream may produce. It returns the bytes
// written and the bytes of src the stream occupied.
func (f *inflater) inflate(out, src []byte) (n, used int, err error) {
	br := bitReader{src: src}
	for final := false; !final; {
		br.refill()
		hdr := br.take(3)
		if br.bitcnt < 0 {
			return 0, 0, errInflateTruncated
		}
		final = hdr&1 != 0
		switch hdr >> 1 {
		case 0:
			n, err = br.stored(out, n)
		case 1:
			if !f.fixed {
				f.litBits, _ = f.build(f.lit[:], fixedLens[:numLitLen], litLenResults[:], litRootBits)
				f.distBits, _ = f.build(f.dist[:], fixedLens[numLitLen:], distResults[:], distRootBits)
				f.fixed = true
			}
			n, err = f.huffmanBlock(&br, out, n)
		case 2:
			if err = f.readDynamic(&br); err == nil {
				n, err = f.huffmanBlock(&br, out, n)
			}
		default:
			err = errInflateBlock
		}
		if err != nil {
			return 0, 0, err
		}
	}
	// The stream ends on the byte holding its last bit; whole bytes still
	// in the bit buffer belong to whatever follows.
	return n, br.in - br.bitcnt>>3, nil
}

// stored copies one stored block to out[n:] and returns the new output
// length.
func (br *bitReader) stored(out []byte, n int) (int, error) {
	// Drop the rest of the current byte and hand back the buffered ones.
	br.in -= br.bitcnt >> 3
	br.bitbuf, br.bitcnt = 0, 0
	if len(br.src)-br.in < 4 {
		return n, errInflateTruncated
	}
	size := int(binary.LittleEndian.Uint16(br.src[br.in:]))
	if uint16(size) != ^binary.LittleEndian.Uint16(br.src[br.in+2:]) {
		return n, errInflateBlock
	}
	br.in += 4
	if size > len(br.src)-br.in {
		return n, errInflateTruncated
	}
	if size > len(out)-n {
		return n, errInflateTooLong
	}
	copy(out[n:], br.src[br.in:br.in+size])
	br.in += size
	return n + size, nil
}

// readDynamic parses a dynamic block's header and builds its two codes.
func (f *inflater) readDynamic(br *bitReader) error {
	br.refill()
	nlit := int(br.take(5)) + 257
	ndist := int(br.take(5)) + 1
	nclen := int(br.take(4)) + 4
	if br.bitcnt < 0 {
		return errInflateTruncated
	}
	if nlit > 286 || ndist > 30 {
		return errInflateBlock
	}
	var preLens [numPrecode]uint8
	for i := 0; i < nclen; i++ {
		if br.bitcnt < 3 {
			br.refill()
		}
		preLens[precodeOrder[i]] = uint8(br.take(3))
	}
	if br.bitcnt < 0 {
		return errInflateTruncated
	}
	preBits, ok := f.build(f.pre[:], preLens[:], precodeResults[:], preRootBits)
	if !ok {
		return errInflateCode
	}
	preMask := uint64(1)<<preBits - 1
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if br.bitcnt < 14 { // a codeword and its extra bits
			br.refill()
		}
		e := f.pre[br.bitbuf&preMask]
		if e&entInvalid != 0 {
			return errInflateCode
		}
		br.take(uint(e & entBits))
		var rep int
		var val uint8
		switch sym := e >> 16; sym {
		default:
			rep, val = 1, uint8(sym)
		case 16:
			if i == 0 {
				return errInflateBlock
			}
			rep, val = 3+int(br.take(2)), lens[i-1]
		case 17:
			rep = 3 + int(br.take(3))
		case 18:
			rep = 11 + int(br.take(7))
		}
		if br.bitcnt < 0 {
			return errInflateTruncated
		}
		if rep > len(lens)-i {
			return errInflateBlock
		}
		for ; rep > 0; rep-- {
			lens[i] = val
			i++
		}
	}
	f.fixed = false
	if f.litBits, ok = f.build(f.lit[:], lens[:nlit], litLenResults[:], litRootBits); !ok {
		return errInflateCode
	}
	if f.distBits, ok = f.build(f.dist[:], lens[nlit:], distResults[:], distRootBits); !ok {
		return errInflateCode
	}
	return nil
}

// build fills table with the canonical Huffman code whose codeword
// lengths are lens, decoding symbol s to results[s], and returns the
// root table's index width (at most rootMax). It reports false for a
// code compress/flate rejects: over-subscribed, or incomplete other than
// a single one-bit codeword. An empty code is accepted and decodes
// nothing, since a block of literals alone never uses its distance code.
//
// A document's streams are a kilobyte or two, so filling the tables must
// not cost what decoding with them does: each codeword is written to the
// root table once, at the width the table has when its length comes up,
// and the table is doubled by one copy per further bit of width.
func (f *inflater) build(table []uint32, lens []uint8, results []uint32, rootMax uint) (root uint, ok bool) {
	var count [maxCodeLen + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	maxLen := uint(maxCodeLen)
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	if maxLen == 0 {
		table[0], table[1] = entInvalid, entInvalid
		return 1, true
	}
	// offs[l] is the place in sorted of the first symbol of length l.
	// Symbols without a codeword sort in front, which spares the pass
	// below a branch per symbol.
	var offs [maxCodeLen + 1]uint16
	code, off := uint(0), count[0]
	for l := uint(1); l <= maxLen; l++ {
		offs[l] = off
		off += count[l]
		code = code<<1 + uint(count[l])
	}
	single := code == 1 && maxLen == 1 // one one-bit codeword
	if code != 1<<maxLen && !single {
		return 0, false
	}
	for sym, l := range lens {
		f.sorted[offs[l]] = uint16(sym)
		offs[l]++
	}

	root = min(rootMax, maxLen)
	rootSize := uint(1) << root
	var (
		at        = count[0]  // next symbol in f.sorted
		next      = uint16(0) // its codeword
		size      = uint(1)   // root entries laid out so far
		subPrefix = ^uint(0)  // root index of the subtable being filled
		subStart  uint        // its first entry
		tableEnd  = rootSize  // first free entry
	)
	for l := uint(1); l <= maxLen; l++ {
		next <<= 1
		if l <= root {
			copy(table[size:2*size], table[:size])
			size <<= 1
		}
		for left := count[l]; left > 0; left-- { // codewords of length l still to place
			sym := f.sorted[at]
			at++
			// DEFLATE packs codewords starting from their most
			// significant bit, so the table is indexed by the reversal.
			rev := uint(bits.Reverse16(next)) >> (16 - l)
			next++
			if l <= root {
				table[rev] = results[sym] | uint32(l)
				continue
			}
			if prefix := rev & (rootSize - 1); prefix != subPrefix {
				// A new subtable, as wide as the longest codeword that
				// shares this prefix: widen it until the codewords still
				// to be placed fill it.
				subPrefix, subStart = prefix, tableEnd
				subBits := l - root
				fill := uint(left)
				for fill < 1<<subBits {
					subBits++
					if root+subBits > maxLen {
						return 0, false
					}
					fill = fill<<1 + uint(count[root+subBits])
				}
				tableEnd = subStart + 1<<subBits
				if tableEnd > uint(len(table)) {
					return 0, false
				}
				table[prefix] = uint32(subStart)<<16 | entSub | uint32(subBits)<<8 | uint32(root)
			}
			e := results[sym] | uint32(l-root)
			for i := subStart + rev>>root; i < tableEnd; i += 1 << (l - root) {
				table[i] = e
			}
		}
	}
	if single {
		table[1] = entInvalid // the unused half of its table
	}
	return root, true
}

// huffmanBlock decodes one block's symbols with the current tables,
// writing at out[n:], and returns the new output length.
func (f *inflater) huffmanBlock(br *bitReader, out []byte, n int) (int, error) {
	src, in, bitbuf, bitcnt := br.src, br.in, br.bitbuf, br.bitcnt
	litMask := uint64(1)<<f.litBits - 1
	distMask := uint64(1)<<f.distBits - 1
	for {
		// One pass consumes at most 48 bits: a 15-bit length codeword
		// with 5 extra bits, then a 15-bit distance codeword with 13.
		if bitcnt < 48 {
			if in+8 <= len(src) {
				bitbuf |= binary.LittleEndian.Uint64(src[in:]) << (uint(bitcnt) & 63)
				in += (63 - bitcnt) >> 3
				bitcnt |= 56
			} else {
				for bitcnt <= 56 && in < len(src) {
					bitbuf |= uint64(src[in]) << (uint(bitcnt) & 63)
					in++
					bitcnt += 8
				}
			}
		}
		e := f.lit[bitbuf&litMask]
		bitbuf >>= e & entBits
		bitcnt -= int(e & entBits)
		if e&entSub != 0 {
			e = f.lit[uint64(e>>16)+bitbuf&(1<<(e>>8&15)-1)]
			bitbuf >>= e & entBits
			bitcnt -= int(e & entBits)
		}
		if bitcnt < 0 {
			return n, errInflateTruncated
		}
		if e&entLiteral != 0 {
			if n >= len(out) {
				return n, errInflateTooLong
			}
			out[n] = byte(e >> 16)
			n++
			continue
		}
		if e&(entEOB|entInvalid) != 0 {
			if e&entInvalid != 0 {
				return n, errInflateSymbol
			}
			br.in, br.bitbuf, br.bitcnt = in, bitbuf, bitcnt
			return n, nil
		}
		extra := e >> 8 & 15
		length := int(e>>16) + int(bitbuf&(1<<extra-1))
		bitbuf >>= extra
		bitcnt -= int(extra)

		e = f.dist[bitbuf&distMask]
		bitbuf >>= e & entBits
		bitcnt -= int(e & entBits)
		if e&entSub != 0 {
			e = f.dist[uint64(e>>16)+bitbuf&(1<<(e>>8&15)-1)]
			bitbuf >>= e & entBits
			bitcnt -= int(e & entBits)
		}
		if e&entInvalid != 0 {
			return n, errInflateSymbol
		}
		extra = e >> 8 & 15
		dist := int(e>>16) + int(bitbuf&(1<<extra-1))
		bitbuf >>= extra
		bitcnt -= int(extra)
		if bitcnt < 0 {
			return n, errInflateTruncated
		}
		if dist > n {
			return n, errInflateDistance
		}
		if length > len(out)-n {
			return n, errInflateTooLong
		}
		end := n + length
		switch {
		case dist >= 8 && len(out)-end >= 7 && (length <= 32 || dist < length):
			// Most matches are a word or two long, less than a call to
			// memmove costs: copy whole words, which may run up to seven
			// bytes past the match into output not yet written. At eight
			// bytes' distance and more a word never reads its own bytes,
			// so this serves overlapping matches of any length too; only
			// a long match clear of its source is left to memmove.
			for i := n; i < end; i += 8 {
				binary.LittleEndian.PutUint64(out[i:], binary.LittleEndian.Uint64(out[i-dist:]))
			}
		case dist >= length:
			copy(out[n:end], out[n-dist:])
		default:
			// The match overlaps its own output: bytes must be copied in
			// order, each possibly written a moment ago.
			for i := n; i < end; i++ {
				out[i] = out[i-dist]
			}
		}
		n = end
	}
}

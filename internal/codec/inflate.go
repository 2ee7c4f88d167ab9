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
//	bits  0..5   bits to consume: the whole codeword length, in a
//	             subtable too; the root width for a pointer
//	bits  8..11  extra bits of a length or distance symbol; the index
//	             width of the subtable behind a pointer
//	bits 12..15  entry kind (zero for a length or distance symbol)
//	bits 16..31  literal byte, length or distance base, or a subtable's
//	             first index
//
// A precode entry holds a code length in bits 16..31, or is an entRun:
// a repeat count's base in bits 16..31, its extra bits in bits 8..11, and
// entPrev if it repeats the previous length rather than zero.
const (
	entBits    = 63 // six bits, so shifts by it compile to one instruction
	entPrev    = 1 << 6
	entRun     = 1 << 7
	entLiteral = 1 << 12
	entEOB     = 1 << 13
	entSub     = 1 << 14
	entInvalid = 1 << 15
)

var (
	litLenResults  [numLitLen]uint32
	distResults    [numDist]uint32
	precodeResults [numPrecode]uint32

	// reversed[c] is c with its litRootBits bits in reverse order.
	reversed [1 << litRootBits]uint16

	fixedLens                     [numLitLen + numDist]uint8
	fixedGroups                   codeGroups
	fixedLitCount, fixedDistCount [maxCodeLen + 1]uint16
	noneBefore                    [maxCodeLen + 1]uint16 // first offsets of a code alone in its groups

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
		switch {
		case sym < 16: // the length itself
			precodeResults[sym] = uint32(sym) << 16
		case sym == 16: // the previous length 3..6 times
			precodeResults[sym] = entRun | entPrev | 3<<16 | 2<<8
		case sym == 17: // zero 3..10 times
			precodeResults[sym] = entRun | 3<<16 | 3<<8
		default: // zero 11..138 times
			precodeResults[sym] = entRun | 11<<16 | 7<<8
		}
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
	for c := range reversed {
		reversed[c] = bits.Reverse16(uint16(c)) >> (16 - litRootBits)
	}
	fixedDistCount = fixedGroups.add(fixedLens[:])
	fixedLitCount = fixedGroups.split(&fixedDistCount, numLitLen)
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
	groups codeGroups // the header being read, by codeword length
}

// codeGroups holds a code's symbols grouped by codeword length, each
// group in symbol order: the order canonical codewords are handed out in.
// A dynamic header's two codes share the groups, since its lengths are
// one sequence: in each group the literal/length symbols come first, then
// the distance symbols, numbered on from the literal/length ones.
type codeGroups [maxCodeLen + 1][numLitLen + numDist]uint16

// add fills the groups with the symbols of lens and returns how many
// each group holds.
func (g *codeGroups) add(lens []uint8) (count [maxCodeLen + 1]uint16) {
	for sym, l := range lens {
		g[l&maxCodeLen][count[l&maxCodeLen]] = uint16(sym)
		count[l&maxCodeLen]++
	}
	return count
}

// split parts two codes that share the groups, given how many symbols
// each group holds: the first code's symbols are those below n. It
// returns the first code's counts and leaves the second's in count.
func (g *codeGroups) split(count *[maxCodeLen + 1]uint16, n int) (first [maxCodeLen + 1]uint16) {
	for l := range first {
		first[l] = count[l]
		for first[l] > 0 && int(g[l][first[l]-1]) >= n {
			first[l]--
		}
		count[l] -= first[l]
	}
	return first
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
				f.litBits, _ = f.build(f.lit[:], &fixedGroups, &noneBefore, &fixedLitCount, 0, litLenResults[:], litRootBits)
				f.distBits, _ = f.build(f.dist[:], &fixedGroups, &fixedLitCount, &fixedDistCount, numLitLen, distResults[:], distRootBits)
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
// The code lengths are grouped as they are read, so build need not pass
// over them again to count or order them.
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
	count := f.groups.add(preLens[:])
	preBits, ok := f.build(f.pre[:], &f.groups, &noneBefore, &count, 0, precodeResults[:], preRootBits)
	if !ok {
		return errInflateCode
	}
	// Widen the precode's table to all seven bits: the loop reading the
	// lengths then indexes it with a constant mask.
	for w := preBits; w < preRootBits; w++ {
		copy(f.pre[1<<w:2<<w], f.pre[:1<<w])
	}
	count = [maxCodeLen + 1]uint16{}
	if err := f.readLengths(br, nlit+ndist, &count); err != nil {
		return err
	}
	litCount := f.groups.split(&count, nlit)
	f.fixed = false
	if f.litBits, ok = f.build(f.lit[:], &f.groups, &noneBefore, &litCount, 0, litLenResults[:], litRootBits); !ok {
		return errInflateCode
	}
	if f.distBits, ok = f.build(f.dist[:], &f.groups, &litCount, &count, nlit, distResults[:], distRootBits); !ok {
		return errInflateCode
	}
	return nil
}

// readLengths reads a dynamic header's n code lengths through the precode
// in f.pre, adding each symbol to its group in f.groups and count.
func (f *inflater) readLengths(br *bitReader, n int, count *[maxCodeLen + 1]uint16) error {
	src, in, bitbuf, bitcnt := br.src, br.in, br.bitbuf, br.bitcnt
	prev := uint32(0) // the last length read
	for i := 0; i < n; {
		if bitcnt < 14 { // a codeword and its extra bits
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
		e := f.pre[bitbuf&(1<<preRootBits-1)]
		bitbuf >>= e & entBits
		bitcnt -= int(e & entBits)
		if e&(entRun|entInvalid) == 0 { // one length, most of the time
			prev = e >> 16 & maxCodeLen
			f.groups[prev][count[prev]] = uint16(i)
			count[prev]++
			i++
			continue
		}
		if e&entInvalid != 0 {
			return errInflateCode
		}
		extra := e >> 8 & 15
		rep := int(e>>16&0xff) + int(bitbuf&(1<<extra-1))
		bitbuf >>= extra
		bitcnt -= int(extra)
		if e&entPrev == 0 {
			prev = 0
		} else if i == 0 {
			return errInflateBlock
		}
		if rep > n-i {
			return errInflateBlock
		}
		for end := i + rep; i < end; i++ {
			f.groups[prev][count[prev]] = uint16(i)
			count[prev]++
		}
	}
	// Past the end of the input the loop reads zeros: whatever lengths
	// they made, the stream is cut short.
	if bitcnt < 0 {
		return errInflateTruncated
	}
	br.in, br.bitbuf, br.bitcnt = in, bitbuf, bitcnt
	return nil
}

// build fills table with a canonical Huffman code and returns the root
// table's index width (at most rootMax). The code has count[l] codewords
// of each length l: symbols groups[l][first[l]:][:count[l]], less base,
// decoding symbol s to results[s]. It reports false for a code
// compress/flate rejects: over-subscribed, or incomplete other than a
// single one-bit codeword. An empty code is accepted and decodes nothing,
// since a block of literals alone never uses its distance code.
//
// A document's streams are a kilobyte or two, so filling the tables must
// not cost what decoding with them does: each codeword is written to the
// root table once, at the width the table has when its length comes up,
// and the table is doubled by one copy per further bit of width.
func (f *inflater) build(table []uint32, groups *codeGroups, first, count *[maxCodeLen + 1]uint16, base int, results []uint32, rootMax uint) (root uint, ok bool) {
	maxLen := uint(maxCodeLen)
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	if maxLen == 0 {
		table[0], table[1] = entInvalid, entInvalid
		return 1, true
	}
	code := uint(0)
	for l := uint(1); l <= maxLen; l++ {
		code = code<<1 + uint(count[l])
	}
	single := code == 1 && maxLen == 1 // one one-bit codeword
	if code != 1<<maxLen && !single {
		return 0, false
	}

	root = min(rootMax, maxLen)
	next := uint(0) // the next codeword
	for l := uint(1); l <= root; l++ {
		copy(table[1<<(l-1):1<<l], table[:1<<(l-1)])
		next = place(table, groups[l][first[l]:][:count[l]], results, base, next<<1, l)
	}
	// Longer codewords go to subtables behind their first root bits.
	rootSize := uint(1) << root
	subPrefix, subStart, tableEnd := ^uint(0), uint(0), rootSize
	for l := root + 1; l <= maxLen; l++ {
		next <<= 1
		syms := groups[l][first[l]:][:count[l]]
		for k, sym := range syms {
			left := len(syms) - k // codewords of length l still to place
			rev := uint(bits.Reverse16(uint16(next))) >> (16 - l)
			next++
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
			e := results[int(sym)-base] | uint32(l)
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

// place writes the codewords of length l from next on, one for each of
// syms, to a root table that is l bits wide, and returns the codeword
// after them. It is a function of its own so that its loop keeps its
// values in registers.
//
//go:noinline
func place(table []uint32, syms []uint16, results []uint32, base int, next, l uint) uint {
	shift := litRootBits - l
	for _, sym := range syms {
		// DEFLATE packs codewords starting from their most significant
		// bit, so the table is indexed by the reversal.
		table[reversed[next]>>shift] = results[int(sym)-base] | uint32(l)
		next++
	}
	return next
}

// Margins of huffmanBlock's fast loop. A pass refills at most twice, and
// the first load advances the input by at most seven bytes, so while
// fastIn bytes remain every refill is one unconditional 8-byte load. A
// pass writes at most three literals, so while fastOut bytes of output
// remain they need no check; a match is still checked against the output
// left, once per match.
const (
	fastIn  = 16
	fastOut = 3
)

// entry returns the table entry of the codeword at the front of bitbuf,
// following a subtable pointer. It consumes nothing: the entry's low bits
// are the codeword's whole length.
func entry(table []uint32, bitbuf, rootMask uint64) uint32 {
	e := table[bitbuf&rootMask]
	if e&entSub != 0 {
		e = table[uint64(e>>16)+bitbuf>>(e&entBits)&(1<<(e>>8&15)-1)]
	}
	return e
}

// huffmanBlock decodes one block's symbols with the current tables,
// writing at out[n:], and returns the new output length.
//
// Most of a block decodes in a fast loop that runs while input and output
// outlast the fastIn and fastOut margins. Nothing can run out mid-pass
// there, so the loop checks neither truncation nor, per literal, the
// output length. A pass looks up its first codeword in the bits left by
// the last pass — a refill loads 64 bits and a pass takes at most 48 — and
// refills while that lookup is under way. Up to three literals follow
// from the 56 bits the refill leaves, since a codeword is at most 15. The
// tail, and any stream too short for the margins, decodes in the careful
// loop below it, one symbol and every check a pass.
func (f *inflater) huffmanBlock(br *bitReader, out []byte, n int) (int, error) {
	src, in, bitbuf, bitcnt := br.src, br.in, br.bitbuf, br.bitcnt
	lit, dist := f.lit[:], f.dist[:]
	litMask := uint64(1)<<f.litBits - 1
	distMask := uint64(1)<<f.distBits - 1
	if len(src)-in >= fastIn {
		bitbuf |= binary.LittleEndian.Uint64(src[in:]) << (uint(bitcnt) & 63)
		in += (63 - bitcnt) >> 3
		bitcnt |= 56
	}
	for len(src)-in >= fastIn && len(out)-n >= fastOut {
		e := entry(lit, bitbuf, litMask)
		bitbuf |= binary.LittleEndian.Uint64(src[in:]) << (uint(bitcnt) & 63)
		in += (63 - bitcnt) >> 3
		bitcnt |= 56
		if e&entLiteral != 0 {
			bitbuf >>= e & entBits
			bitcnt -= int(e & entBits)
			out[n] = byte(e >> 16)
			e = entry(lit, bitbuf, litMask)
			if e&entLiteral == 0 {
				n++
			} else {
				bitbuf >>= e & entBits
				bitcnt -= int(e & entBits)
				out[n+1] = byte(e >> 16)
				e = entry(lit, bitbuf, litMask)
				if e&entLiteral == 0 {
					n += 2
				} else {
					bitbuf >>= e & entBits
					bitcnt -= int(e & entBits)
					out[n+2] = byte(e >> 16)
					n += 3
					continue
				}
			}
			// A length or end of block after literals: a match takes up
			// to 48 bits, so refill again.
			bitbuf |= binary.LittleEndian.Uint64(src[in:]) << (uint(bitcnt) & 63)
			in += (63 - bitcnt) >> 3
			bitcnt |= 56
		}
		bitbuf >>= e & entBits
		bitcnt -= int(e & entBits)
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

		e = entry(dist, bitbuf, distMask)
		if e&entInvalid != 0 {
			return n, errInflateSymbol
		}
		bitbuf >>= e & entBits
		bitcnt -= int(e & entBits)
		extra = e >> 8 & 15
		d := int(e>>16) + int(bitbuf&(1<<extra-1))
		bitbuf >>= extra
		bitcnt -= int(extra)
		if d > n {
			return n, errInflateDistance
		}
		if length > len(out)-n {
			return n, errInflateTooLong
		}
		if end := n + length; d >= 8 && len(out)-end >= 7 && (length <= 32 || d < length) {
			for i := n; i < end; i += 8 { // copyMatch's word loop, without the call
				binary.LittleEndian.PutUint64(out[i:], binary.LittleEndian.Uint64(out[i-d:]))
			}
			n = end
		} else {
			n = copyMatch(out, n, d, length)
		}
	}
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
		e := entry(lit, bitbuf, litMask)
		bitbuf >>= e & entBits
		bitcnt -= int(e & entBits)
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

		e = entry(dist, bitbuf, distMask)
		if e&entInvalid != 0 {
			return n, errInflateSymbol
		}
		bitbuf >>= e & entBits
		bitcnt -= int(e & entBits)
		extra = e >> 8 & 15
		d := int(e>>16) + int(bitbuf&(1<<extra-1))
		bitbuf >>= extra
		bitcnt -= int(extra)
		if bitcnt < 0 {
			return n, errInflateTruncated
		}
		if d > n {
			return n, errInflateDistance
		}
		if length > len(out)-n {
			return n, errInflateTooLong
		}
		n = copyMatch(out, n, d, length)
	}
}

// copyMatch copies the length bytes dist back from out[n] to out[n:] and
// returns the new output length.
func copyMatch(out []byte, n, dist, length int) int {
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
	return end
}

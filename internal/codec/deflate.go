// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-go file.

package codec

import (
	"encoding/binary"
	"hash/adler32"
	"math"
	"math/bits"
	"sync"
)

// This file is the DEFLATE (RFC 1951) encoder behind ZlibCompress:
// compress/flate's level-9 path — the lazy matcher, writeBlock's
// stored/fixed/dynamic choice, Huffman code construction — and
// compress/zlib's framing, as a one-shot (dst, src) → dst call on pooled
// state. It emits exactly the bytes a compress/zlib writer at
// BestCompression emits for one Write and a Close
// (FuzzDeflateEquivalence holds the two equal). It departs from the
// original only where that provably leaves the output unchanged, to cut
// what a kilobyte stream costs to start:
//
//   - The hash tables are not cleared per stream. Every entry is a window
//     index plus hashOffset and every lookup rejects a value below
//     hashOffset, so reset moves hashOffset past every stored value; the
//     tables are cleared only when it would pass maxHashOffset.
//   - Huffman codes are built without sort.Sort. byFreq's order —
//     frequency, then literal — is what a stable sort on frequency makes
//     of a list built in literal order; the per-length byLiteral sorts
//     are canonical code assignment in one pass over the alphabet.
//   - bitCounts keeps its algorithm but takes a leaf-count row from the
//     level below by assigning a narrow row, not by a memmove per pair.

const (
	logWindowSize = 15
	windowSize    = 1 << logWindowSize
	windowMask    = windowSize - 1

	baseMatchLength = 3 // the smallest match length RFC 1951 allows
	minMatchLength  = 4 // the smallest match length the encoder emits
	maxMatchLength  = 258
	baseMatchOffset = 1

	maxFlateBlockTokens = 1 << 14
	maxStoreBlockSize   = 65535
	hashBits            = 17
	hashSize            = 1 << hashBits
	hashMask            = hashSize - 1
	maxHashOffset       = 1 << 24

	// compress/flate's tuning for level 9.
	goodLength = 32   // a match this long searches a quarter of the chain
	lazyLength = 258  // a match this long is not re-tried one byte on
	niceLength = 258  // a match this long ends the search
	maxChain   = 4096 // chain entries searched per position

	maxNumLit        = 286
	offsetCodeCount  = 30
	endBlockMarker   = 256
	lengthCodesStart = 257
	codegenCodeCount = 19
	badCode          = 255
	maxBitsLimit     = 16
)

// A token is a literal byte (or endBlockMarker) below matchType, or a
// match: matchType + (length-3)<<lengthShift + (offset-1).
type token uint32

const (
	lengthShift = 22
	offsetMask  = 1<<lengthShift - 1
	matchType   = 1 << 30
)

func matchToken(xlength, xoffset uint32) token {
	return token(matchType + xlength<<lengthShift + xoffset)
}

func (t token) length() uint32 { return uint32(t-matchType) >> lengthShift }
func (t token) offset() uint32 { return uint32(t) & offsetMask }

var (
	lengthExtraBits = [29]uint8{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
		4, 4, 4, 4, 5, 5, 5, 5, 0,
	}
	lengthBase = [29]uint32{
		0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56,
		64, 80, 96, 112, 128, 160, 192, 224, 255,
	}
	offsetExtraBits = [offsetCodeCount]uint8{
		0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
		9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
	}
	offsetBase = [offsetCodeCount]uint32{
		0x0000, 0x0001, 0x0002, 0x0003, 0x0004, 0x0006, 0x0008, 0x000c, 0x0010, 0x0018,
		0x0020, 0x0030, 0x0040, 0x0060, 0x0080, 0x00c0, 0x0100, 0x0180, 0x0200, 0x0300,
		0x0400, 0x0600, 0x0800, 0x0c00, 0x1000, 0x1800, 0x2000, 0x3000, 0x4000, 0x6000,
	}

	// lengthCodes maps length-3 to its length code less 257; offsetCodes
	// maps offset-1 below 256 to its distance code.
	lengthCodes [256]uint8
	offsetCodes [256]uint8

	fixedLiteralCodes [maxNumLit]hcode
	fixedOffsetCodes  [offsetCodeCount]hcode
)

func init() {
	for code, base := range lengthBase {
		for x := base; x < base+1<<lengthExtraBits[code] && x < 256; x++ {
			lengthCodes[x] = uint8(code)
		}
	}
	for code, base := range offsetBase {
		for x := base; x < base+1<<offsetExtraBits[code] && x < 256; x++ {
			offsetCodes[x] = uint8(code)
		}
	}
	for ch := range fixedLiteralCodes {
		var code, size uint16
		switch {
		case ch < 144:
			code, size = uint16(ch)+48, 8
		case ch < 256:
			code, size = uint16(ch)+400-144, 9
		case ch < 280:
			code, size = uint16(ch)-256, 7
		default:
			code, size = uint16(ch)+192-280, 8
		}
		fixedLiteralCodes[ch] = hcode{code: reverseBits(code, size), len: size}
	}
	for ch := range fixedOffsetCodes {
		fixedOffsetCodes[ch] = hcode{code: reverseBits(uint16(ch), 5), len: 5}
	}
}

func offsetCode(off uint32) uint32 {
	if off < uint32(len(offsetCodes)) {
		return uint32(offsetCodes[off])
	}
	if off>>7 < uint32(len(offsetCodes)) {
		return uint32(offsetCodes[off>>7]) + 14
	}
	return uint32(offsetCodes[off>>14]) + 28
}

func reverseBits(number, bitLength uint16) uint16 {
	return bits.Reverse16(number << (16 - bitLength))
}

// deflater is one level-9 encoder's reusable state, ~850 KB: keep it
// pooled (deflaters). It is not safe for concurrent use.
type deflater struct {
	// The bit writer: the stream so far, then nbits pending bits. out is
	// the only pointer in the struct, and comes first: the garbage
	// collector scans an object up to its last pointer.
	out   []byte
	bits  uint64
	nbits uint

	// hashHead[h] is the latest window index with hash h, and
	// hashPrev[i&windowMask] the one before index i, each stored plus
	// hashOffset; a value below hashOffset is no index at all.
	chainHead  int
	hashOffset int
	hashHead   [hashSize]uint32
	hashPrev   [windowSize]uint32

	// Input not yet tokenized is window[index:windowEnd].
	window         [2 * windowSize]byte
	index          int
	windowEnd      int
	blockStart     int  // window index where the current tokens start
	byteAvailable  bool // window[index-1] is still to be emitted
	length, offset int  // the match found at index-1
	maxInsertIndex int

	tokens  [maxFlateBlockTokens + 1]token
	ntokens int

	literalFreq [maxNumLit]int32
	offsetFreq  [offsetCodeCount]int32
	codegenFreq [codegenCodeCount]int32
	codegen     [maxNumLit + offsetCodeCount + 1]uint8
	litEnc      huffmanEncoder
	offEnc      huffmanEncoder
	codegenEnc  huffmanEncoder
}

var deflaters = sync.Pool{New: func() any { return new(deflater) }}

// compress appends the zlib stream of src to dst.
func (d *deflater) compress(dst, src []byte) []byte {
	d.reset()
	// RFC 1950 header: deflate with a 32 KiB window, level "best", no
	// preset dictionary.
	d.out = append(dst, 0x78, 0xda)
	for b := src; len(b) > 0; {
		d.deflate(false)
		b = b[d.fillDeflate(b):]
	}
	d.deflate(true)
	d.writeStoredHeader(0, true)
	d.flush()
	out := binary.BigEndian.AppendUint32(d.out, adler32.Checksum(src))
	d.out = nil
	return out
}

func (d *deflater) reset() {
	// A stream leaves values below hashOffset+windowEnd in the tables.
	switch {
	case d.hashOffset == 0: // a new deflater: its zero tables hold nothing at offset 1
		d.hashOffset = 1
	case d.hashOffset+d.windowEnd > maxHashOffset:
		clear(d.hashHead[:])
		clear(d.hashPrev[:])
		d.hashOffset = 1
	default:
		d.hashOffset += d.windowEnd
	}
	d.chainHead = -1
	d.index, d.windowEnd = 0, 0
	d.blockStart, d.byteAvailable = 0, false
	d.ntokens = 0
	d.length, d.offset = minMatchLength-1, 0
}

func (d *deflater) fillDeflate(b []byte) int {
	if d.index >= 2*windowSize-(minMatchLength+maxMatchLength) {
		// Shift the window by windowSize.
		copy(d.window[:], d.window[windowSize:])
		d.index -= windowSize
		d.windowEnd -= windowSize
		if d.blockStart >= windowSize {
			d.blockStart -= windowSize
		} else {
			d.blockStart = math.MaxInt32
		}
		d.hashOffset += windowSize
		if d.hashOffset > maxHashOffset {
			delta := d.hashOffset - 1
			d.hashOffset -= delta
			d.chainHead -= delta
			for i, v := range d.hashPrev[:] {
				if int(v) > delta {
					d.hashPrev[i] = uint32(int(v) - delta)
				} else {
					d.hashPrev[i] = 0
				}
			}
			for i, v := range d.hashHead[:] {
				if int(v) > delta {
					d.hashHead[i] = uint32(int(v) - delta)
				} else {
					d.hashHead[i] = 0
				}
			}
		}
	}
	n := copy(d.window[d.windowEnd:], b)
	d.windowEnd += n
	return n
}

func hash4(b []byte) uint32 {
	return (binary.BigEndian.Uint32(b) * 0x1e35a7bd) >> (32 - hashBits)
}

// matchLen returns how many of the first max bytes of a and b agree.
func matchLen(a, b []byte, max int) int {
	a, b = a[:max], b[:max]
	n := 0
	for ; len(a)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; n < len(a); n++ {
		if a[n] != b[n] {
			break
		}
	}
	return n
}

// findMatch looks for a match at pos longer than prevLength, walking at
// most maxChain entries of its hash chain from prevHead.
func (d *deflater) findMatch(pos, prevHead, prevLength, lookahead int) (length, offset int, ok bool) {
	minMatchLook := min(maxMatchLength, lookahead)
	win := d.window[0 : pos+minMatchLook]
	nice := min(len(win)-pos, niceLength)
	tries := maxChain
	length = prevLength
	if length >= goodLength {
		tries >>= 2
	}
	wEnd := win[pos+length]
	wPos := win[pos:]
	minIndex := pos - windowSize
	for i := prevHead; tries > 0; tries-- {
		if wEnd == win[i+length] {
			n := matchLen(win[i:], wPos, minMatchLook)
			if n > length && (n > minMatchLength || pos-i <= 4096) {
				length, offset, ok = n, pos-i, true
				if n >= nice {
					break
				}
				wEnd = win[pos+n]
			}
		}
		if i == minIndex {
			// hashPrev[i&windowMask] has already been overwritten.
			break
		}
		i = int(d.hashPrev[i&windowMask]) - d.hashOffset
		if i < minIndex || i < 0 {
			break
		}
	}
	return
}

// insert makes index the head of its hash chain and returns the head it
// replaced.
func (d *deflater) insert(index int) uint32 {
	hh := &d.hashHead[hash4(d.window[index:])&hashMask]
	prev := *hh
	d.hashPrev[index&windowMask] = prev
	*hh = uint32(index + d.hashOffset)
	return prev
}

// deflate tokenizes the window with compress/flate's lazy matcher:
// a match is emitted only once the match one byte on is no longer. It
// stops with a full match's worth of lookahead left unless final, and
// writes a block whenever maxFlateBlockTokens are queued.
func (d *deflater) deflate(final bool) {
	if d.windowEnd-d.index < minMatchLength+maxMatchLength && !final {
		return
	}
	d.maxInsertIndex = d.windowEnd - (minMatchLength - 1)
	for {
		lookahead := d.windowEnd - d.index
		if lookahead < minMatchLength+maxMatchLength {
			if !final {
				return
			}
			if lookahead == 0 {
				if d.byteAvailable {
					d.tokens[d.ntokens] = token(d.window[d.index-1])
					d.ntokens++
					d.byteAvailable = false
				}
				if d.ntokens > 0 {
					d.writeBlock(d.index)
				}
				return
			}
		}
		if d.index < d.maxInsertIndex {
			d.chainHead = int(d.insert(d.index))
		}
		prevLength, prevOffset := d.length, d.offset
		d.length, d.offset = minMatchLength-1, 0
		minIndex := max(d.index-windowSize, 0)
		if d.chainHead-d.hashOffset >= minIndex && lookahead > prevLength && prevLength < lazyLength {
			if n, off, ok := d.findMatch(d.index, d.chainHead-d.hashOffset, minMatchLength-1, lookahead); ok {
				d.length, d.offset = n, off
			}
		}
		if prevLength >= minMatchLength && d.length <= prevLength {
			// The match at index-1 is at least as long as this one: emit it,
			// and hash every position it covers.
			d.tokens[d.ntokens] = matchToken(uint32(prevLength-baseMatchLength), uint32(prevOffset-baseMatchOffset))
			d.ntokens++
			end := d.index + prevLength - 1
			for d.index++; d.index < end; d.index++ {
				if d.index < d.maxInsertIndex {
					d.insert(d.index)
				}
			}
			d.byteAvailable = false
			d.length = minMatchLength - 1
			if d.ntokens == maxFlateBlockTokens {
				d.writeBlock(d.index)
			}
			continue
		}
		if d.byteAvailable {
			d.tokens[d.ntokens] = token(d.window[d.index-1])
			d.ntokens++
			if d.ntokens == maxFlateBlockTokens {
				d.writeBlock(d.index)
			}
		}
		d.index++
		d.byteAvailable = true
	}
}

// writeBlock writes the queued tokens, which cover the window up to
// index, as the smallest of a stored, a fixed and a dynamic block. A
// block whose bytes have left the window cannot be stored.
func (d *deflater) writeBlock(index int) {
	var input []byte
	storable := d.blockStart <= index
	if storable {
		input = d.window[d.blockStart:index]
		storable = len(input) <= maxStoreBlockSize
	}
	d.blockStart = index
	d.tokens[d.ntokens] = endBlockMarker
	tokens := d.tokens[:d.ntokens+1]
	d.ntokens = 0
	numLiterals, numOffsets := d.indexTokens(tokens)

	var extraBits int
	if storable {
		// Only a stored block's cost needs the extra bits, which fixed and
		// dynamic coding share.
		for lc := lengthCodesStart + 8; lc < numLiterals; lc++ {
			extraBits += int(d.literalFreq[lc]) * int(lengthExtraBits[lc-lengthCodesStart])
		}
		for oc := 4; oc < numOffsets; oc++ {
			extraBits += int(d.offsetFreq[oc]) * int(offsetExtraBits[oc])
		}
	}

	litCodes, offCodes := fixedLiteralCodes[:], fixedOffsetCodes[:]
	size := 3 + bitLength(d.literalFreq[:], litCodes) + bitLength(d.offsetFreq[:], offCodes) + extraBits
	d.generateCodegen(numLiterals, numOffsets)
	d.codegenEnc.generate(d.codegenFreq[:], 7)
	dynamicSize, numCodegens := d.dynamicSize(extraBits)
	dynamic := dynamicSize < size
	if dynamic {
		size = dynamicSize
		litCodes, offCodes = d.litEnc.codes[:], d.offEnc.codes[:]
	}

	if storable && (len(input)+5)*8 < size {
		d.writeStoredHeader(len(input), false)
		d.writeBytes(input)
		return
	}
	if dynamic {
		d.writeDynamicHeader(numLiterals, numOffsets, numCodegens)
	} else {
		d.writeBits(2, 3) // a fixed block, not the last
	}
	d.writeTokens(tokens, litCodes, offCodes)
}

// indexTokens counts the tokens' symbols and builds the dynamic literal
// and offset codes for them. It returns how many of each alphabet the
// block uses.
func (d *deflater) indexTokens(tokens []token) (numLiterals, numOffsets int) {
	clear(d.literalFreq[:])
	clear(d.offsetFreq[:])
	for _, t := range tokens {
		if t < matchType {
			d.literalFreq[t]++
			continue
		}
		d.literalFreq[lengthCodesStart+int(lengthCodes[t.length()])]++
		d.offsetFreq[offsetCode(t.offset())]++
	}
	numLiterals = len(d.literalFreq)
	for d.literalFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	numOffsets = len(d.offsetFreq)
	for numOffsets > 0 && d.offsetFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	if numOffsets == 0 {
		// A dynamic header needs at least one offset code.
		d.offsetFreq[0] = 1
		numOffsets = 1
	}
	d.litEnc.generate(d.literalFreq[:], 15)
	d.offEnc.generate(d.offsetFreq[:], 15)
	return
}

func bitLength(freq []int32, codes []hcode) int {
	var total int
	for i, f := range freq {
		if f != 0 {
			total += int(f) * int(codes[i].len)
		}
	}
	return total
}

// generateCodegen run-length codes the dynamic literal and offset code
// lengths (RFC 1951 3.2.7) into codegen, ended by badCode, and counts
// the codegen symbols in codegenFreq. Codes 16–18 are followed by their
// repeat count.
func (d *deflater) generateCodegen(numLiterals, numOffsets int) {
	clear(d.codegenFreq[:])
	// codegen holds the code lengths first; the output overwrites them
	// from the front and is never longer than what it has read.
	codegen := d.codegen[:]
	for i := range numLiterals {
		codegen[i] = uint8(d.litEnc.codes[i].len)
	}
	for i := range numOffsets {
		codegen[numLiterals+i] = uint8(d.offEnc.codes[i].len)
	}
	codegen[numLiterals+numOffsets] = badCode

	size := codegen[0]
	count := 1
	outIndex := 0
	for inIndex := 1; size != badCode; inIndex++ {
		// count copies of size have been read and not yet written.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		if size != 0 {
			codegen[outIndex] = size
			outIndex++
			d.codegenFreq[size]++
			count--
			for count >= 3 {
				n := min(6, count)
				codegen[outIndex] = 16
				codegen[outIndex+1] = uint8(n - 3)
				outIndex += 2
				d.codegenFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(138, count)
				codegen[outIndex] = 18
				codegen[outIndex+1] = uint8(n - 11)
				outIndex += 2
				d.codegenFreq[18]++
				count -= n
			}
			if count >= 3 {
				codegen[outIndex] = 17
				codegen[outIndex+1] = uint8(count - 3)
				outIndex += 2
				d.codegenFreq[17]++
				count = 0
			}
		}
		for ; count > 0; count-- {
			codegen[outIndex] = size
			outIndex++
			d.codegenFreq[size]++
		}
		size = nextSize
		count = 1
	}
	codegen[outIndex] = badCode
}

// dynamicSize returns the size in bits of the block as a dynamic block,
// and how many codegen code lengths its header carries.
func (d *deflater) dynamicSize(extraBits int) (size, numCodegens int) {
	numCodegens = len(d.codegenFreq)
	for numCodegens > 4 && d.codegenFreq[precodeOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	header := 3 + 5 + 5 + 4 + (3 * numCodegens) +
		bitLength(d.codegenFreq[:], d.codegenEnc.codes[:]) +
		int(d.codegenFreq[16])*2 +
		int(d.codegenFreq[17])*3 +
		int(d.codegenFreq[18])*7
	return header + bitLength(d.literalFreq[:], d.litEnc.codes[:]) + bitLength(d.offsetFreq[:], d.offEnc.codes[:]) + extraBits, numCodegens
}

func (d *deflater) writeDynamicHeader(numLiterals, numOffsets, numCodegens int) {
	d.writeBits(4, 3) // a dynamic block, not the last
	d.writeBits(uint32(numLiterals-257), 5)
	d.writeBits(uint32(numOffsets-1), 5)
	d.writeBits(uint32(numCodegens-4), 4)
	for _, sym := range precodeOrder[:numCodegens] {
		d.writeBits(uint32(d.codegenEnc.codes[sym].len), 3)
	}
	for i := 0; d.codegen[i] != badCode; i++ {
		sym := d.codegen[i]
		d.writeCode(d.codegenEnc.codes[sym])
		switch sym {
		case 16:
			i++
			d.writeBits(uint32(d.codegen[i]), 2)
		case 17:
			i++
			d.writeBits(uint32(d.codegen[i]), 3)
		case 18:
			i++
			d.writeBits(uint32(d.codegen[i]), 7)
		}
	}
}

// writeTokens writes the tokens with the given codes. It is the bit
// writer inlined, holding the pending bits in locals and writing them out
// four bytes at a time. Each token starts with fewer than 32 bits pending
// and adds at most 48, at most 28 of them after a check. An extra-bits
// field of width 0 adds a zero.
func (d *deflater) writeTokens(tokens []token, litCodes, offCodes []hcode) {
	litCodes, offCodes = litCodes[:maxNumLit], offCodes[:offsetCodeCount]
	out, bits, nbits := d.out, d.bits, d.nbits
	if nbits >= 32 { // writeBits leaves up to 47 bits pending
		out = binary.LittleEndian.AppendUint32(out, uint32(bits))
		bits >>= 32
		nbits -= 32
	}
	for _, t := range tokens {
		if t < matchType {
			c := litCodes[t]
			bits |= uint64(c.code) << nbits
			nbits += uint(c.len)
		} else {
			length := t.length()
			lc := lengthCodes[length]
			c := litCodes[lengthCodesStart+int(lc)]
			bits |= uint64(c.code) << nbits
			nbits += uint(c.len)
			bits |= uint64(length-lengthBase[lc]) << nbits
			nbits += uint(lengthExtraBits[lc])
			if nbits >= 32 {
				out = binary.LittleEndian.AppendUint32(out, uint32(bits))
				bits >>= 32
				nbits -= 32
			}
			offset := t.offset()
			oc := offsetCode(offset)
			c = offCodes[oc]
			bits |= uint64(c.code) << nbits
			nbits += uint(c.len)
			bits |= uint64(offset-offsetBase[oc]) << nbits
			nbits += uint(offsetExtraBits[oc])
		}
		if nbits >= 32 {
			out = binary.LittleEndian.AppendUint32(out, uint32(bits))
			bits >>= 32
			nbits -= 32
		}
	}
	d.out, d.bits, d.nbits = out, bits, nbits
}

// The bit writer. Pending bits are written out six bytes at a time, as
// compress/flate does; where the bytes go does not change them.

func (d *deflater) writeBits(b uint32, nb uint) {
	d.bits |= uint64(b) << d.nbits
	d.nbits += nb
	if d.nbits >= 48 {
		d.out = binary.LittleEndian.AppendUint64(d.out, d.bits)
		d.out = d.out[:len(d.out)-2]
		d.bits >>= 48
		d.nbits -= 48
	}
}

func (d *deflater) writeCode(c hcode) { d.writeBits(uint32(c.code), uint(c.len)) }

// flush writes the pending bits out, padded to a whole byte.
func (d *deflater) flush() {
	for ; d.nbits > 0; d.nbits -= min(d.nbits, 8) {
		d.out = append(d.out, byte(d.bits))
		d.bits >>= 8
	}
	d.bits = 0
}

func (d *deflater) writeStoredHeader(length int, final bool) {
	var flag uint32
	if final {
		flag = 1
	}
	d.writeBits(flag, 3)
	d.flush()
	d.writeBits(uint32(length), 16)
	d.writeBits(uint32(^uint16(length)), 16)
}

// writeBytes writes b after a stored header, which leaves whole bytes
// pending.
func (d *deflater) writeBytes(b []byte) {
	d.flush()
	d.out = append(d.out, b...)
}

// hcode is a codeword, bit-reversed for the LSB-first bit writer, and
// its length.
type hcode struct {
	code, len uint16
}

type literalNode struct {
	literal uint16
	freq    int32
}

// huffmanEncoder builds length-limited Huffman codes. list and tmp are
// the scratch of one generate, with room for bitCounts' sentinel; chains
// is bitCounts' node pool.
type huffmanEncoder struct {
	codes     [maxNumLit]hcode
	bitCount  [17]int32
	list, tmp [maxNumLit + 1]literalNode
	// A pair at level k joins two of the items made at level k-1, each a
	// leaf or a pair, so fewer than n pairs are made at any level, and
	// none at level 1.
	chains [(maxBitsLimit - 2) * maxNumLit]chain
}

// A levelInfo describes the state of the constructed tree for a given
// depth.
type levelInfo struct {
	lastFreq     int32 // the frequency of the last node at this level
	nextCharFreq int32 // the frequency of the next character to add to this level
	// The frequency of the next pair (from the level below) to add to this
	// level. Only valid if the "needed" value of the next lower level is 0.
	nextPairFreq int32
	// The number of nodes remaining to generate for this level before
	// moving up to the next level.
	needed int32
	leaves int32 // literals at this level up to its last node
	tail   int32 // chains[tail-1] is that node's ancestor one level down; 0 if none
}

// A chain is a node's ancestor one level down: the literals at its level
// up to it, and its own ancestor (chains[tail-1], none if tail is 0).
// Following the tails from a node gives compress/flate's leafCounts row
// for it, which a pair copied whole from the level below.
type chain struct{ leaves, tail int16 }

// generate makes codes the code compress/flate builds for freq with
// codewords of at most maxBits bits; a symbol of frequency 0 gets none.
func (h *huffmanEncoder) generate(freq []int32, maxBits int32) {
	list := h.list[:0]
	for i, f := range freq {
		if f != 0 {
			list = append(list, literalNode{uint16(i), f})
		} else {
			h.codes[i].len = 0
		}
	}
	if len(list) <= 2 {
		// With two or fewer literals every codeword is one bit long.
		for i, node := range list {
			h.codes[node.literal] = hcode{code: uint16(i), len: 1}
		}
		return
	}
	list = sortByFreq(list, h.tmp[:len(list)])
	bitCount := h.bitCounts(list, maxBits)

	// The most frequent bitCount[1] literals get one bit, the next
	// bitCount[2] two, and so on; within a length, codewords are assigned
	// in literal order (RFC 1951 3.2.2).
	var next [maxBitsLimit]uint16
	var code uint16
	rest := list
	for n := 1; n < len(bitCount); n++ {
		code = (code + uint16(bitCount[n-1])) << 1
		next[n] = code
		for _, node := range rest[len(rest)-int(bitCount[n]):] {
			h.codes[node.literal].len = uint16(n)
		}
		rest = rest[:len(rest)-int(bitCount[n])]
	}
	for i, f := range freq {
		if f != 0 {
			c := &h.codes[i]
			c.code = reverseBits(next[c.len], c.len)
			next[c.len]++
		}
	}
}

// sortByFreq orders list by frequency, and equal frequencies by literal —
// byFreq's order, since list comes in literal order and the sort is
// stable. It returns the sorted list, which is list or tmp.
func sortByFreq(list, tmp []literalNode) []literalNode {
	var maxFreq int32
	for _, node := range list {
		maxFreq = max(maxFreq, node.freq)
	}
	// Least significant digit first, a byte per pass.
	for shift := uint(0); maxFreq>>shift > 0; shift += 8 {
		var count [256]int32
		for _, node := range list {
			count[node.freq>>shift&255]++
		}
		var sum int32
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, node := range list {
			b := node.freq >> shift & 255
			tmp[count[b]] = node
			count[b]++
		}
		list, tmp = tmp, list
	}
	return list
}

// bitCounts computes the number of literals assigned to each bit size in
// the Huffman encoding: slice[i] literals get i bits. list is the
// literals with non-zero frequencies, at least three, in increasing
// frequency, with room behind them for a sentinel; maxBits is below 16.
// This is the boundary package-merge of compress/flate, ties broken the
// same way, so the lengths are the same.
func (h *huffmanEncoder) bitCounts(list []literalNode, maxBits int32) []int32 {
	n := int32(len(list))
	list = list[0 : n+1]
	list[n] = literalNode{math.MaxUint16, math.MaxInt32}

	// The tree can't have greater depth than n - 1, no matter what.
	maxBits = min(maxBits, n-1)

	// A bogus "Level 0" whose sole purpose is so that
	// level1.prev.needed==0. This makes level1.nextPairFreq be a
	// legitimate value that never gets chosen.
	var levels [maxBitsLimit]levelInfo
	for level := int32(1); level <= maxBits; level++ {
		// For every level, the first two items are the first two
		// characters.
		levels[level] = levelInfo{
			lastFreq:     list[1].freq,
			nextCharFreq: list[2].freq,
			nextPairFreq: list[0].freq + list[1].freq,
			leaves:       2,
		}
	}
	levels[1].nextPairFreq = math.MaxInt32

	// We need a total of 2*n - 2 items at top level and have already
	// generated 2.
	levels[maxBits].needed = 2*n - 4

	chains := 0
	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// Out of both leaves and pairs: end all calculations for this
			// level, and make sure no lower level is visited again.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}

		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next item on this row is a leaf node.
			l.lastFreq = l.nextCharFreq
			l.leaves++
			l.nextCharFreq = list[l.leaves].freq
		} else {
			// The next item on this row is a pair from the previous row.
			// nextPairFreq isn't valid until we generate two more values in
			// the level below.
			l.lastFreq = l.nextPairFreq
			below := &levels[level-1]
			h.chains[chains] = chain{int16(below.leaves), int16(below.tail)}
			chains++
			l.tail = int32(chains)
			below.needed = 2
		}

		if l.needed--; l.needed == 0 {
			// This level is done. Continue one level up, whose
			// nextPairFreq is the sum of the two nodes just made here.
			if level == maxBits {
				break
			}
			levels[level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// If we stole from below, move down temporarily to replenish it.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	top := levels[maxBits]
	if top.leaves != n {
		panic("codec: deflate: leaf count at maxBits != n")
	}

	// Walk the last node's ancestors down: the literals left of the level
	// k ancestor need at least maxBits+1-k bits.
	bitCount := h.bitCount[:maxBits+1]
	leaves, tail := top.leaves, top.tail
	for bits := 1; bits <= int(maxBits); bits++ {
		var below int32
		if tail > 0 {
			c := h.chains[tail-1]
			below, tail = int32(c.leaves), int32(c.tail)
		}
		bitCount[bits] = leaves - below
		leaves = below
	}
	return bitCount
}

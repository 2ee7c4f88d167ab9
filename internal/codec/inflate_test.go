package codec

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/adler32"
	"io"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// stdInflate is the reference: compress/zlib reading data to the end of
// the stream (which verifies the Adler-32), rejecting more than max bytes.
func stdInflate(data []byte, max int) ([]byte, error) {
	zr, err := zlib.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(io.LimitReader(zr, int64(max)+1))
	if err != nil {
		return nil, err
	}
	if len(out) > max {
		return nil, errInflateTooLong
	}
	return out, nil
}

func stdDeflate(t testing.TB, level int, chunks ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if i > 0 {
			if err := zw.Flush(); err != nil { // ends the block, adds an empty stored one
				t.Fatal(err)
			}
		}
		if _, err := zw.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bitWriter assembles hand-made DEFLATE streams for the cases no
// compressor emits.
type bitWriter struct {
	out []byte
	n   uint // bits used in the last byte
}

// bits writes the low n bits of v, least significant first (how DEFLATE
// packs everything but Huffman codewords).
func (w *bitWriter) bits(v uint, n uint) {
	for ; n > 0; n-- {
		if w.n == 0 {
			w.out = append(w.out, 0)
		}
		w.out[len(w.out)-1] |= byte(v&1) << w.n
		v >>= 1
		w.n = (w.n + 1) & 7
	}
}

// code writes an n-bit Huffman codeword, most significant bit first.
func (w *bitWriter) code(c uint, n uint) {
	w.bits(uint(bits.Reverse16(uint16(c)))>>(16-n), n)
}

// zlibWrap frames a raw DEFLATE stream whose output is want.
func zlibWrap(deflate, want []byte) []byte {
	out := append([]byte{0x78, 0x9c}, deflate...)
	return binary.BigEndian.AppendUint32(out, adler32.Checksum(want))
}

// dynamicHeader starts a final dynamic block declaring nlit/ndist codes
// and the given precode lengths (in precodeOrder).
func dynamicHeader(nlit, ndist uint, preLens ...uint) *bitWriter {
	w := &bitWriter{}
	w.bits(1, 1) // BFINAL
	w.bits(2, 2) // dynamic
	w.bits(nlit-257, 5)
	w.bits(ndist-1, 5)
	w.bits(uint(len(preLens))-4, 4)
	for _, l := range preLens {
		w.bits(l, 3)
	}
	return w
}

// canonical assigns canonical codewords to the given lengths.
func canonical(lens []uint) []uint {
	var count, next [maxCodeLen + 2]uint
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// dynamicBlock starts a final dynamic block with the given code lengths,
// each spelled out through a flat four-bit precode, and returns writers
// for literal/length and distance symbols.
func dynamicBlock(litLens, distLens []uint) (w *bitWriter, lit, dist func(sym uint)) {
	preLens := make([]uint, numPrecode)
	for i, s := range precodeOrder {
		if s < 16 {
			preLens[i] = 4
		}
	}
	w = dynamicHeader(uint(len(litLens)), uint(len(distLens)), preLens...)
	for _, l := range append(append([]uint{}, litLens...), distLens...) {
		w.code(l, 4)
	}
	litCodes, distCodes := canonical(litLens), canonical(distLens)
	lit = func(sym uint) { w.code(litCodes[sym], litLens[sym]) }
	dist = func(sym uint) { w.code(distCodes[sym], distLens[sym]) }
	return w, lit, dist
}

// handmadeStreams returns streams no compressor emits: those
// compress/zlib accepts, and those it rejects.
func handmadeStreams() (accepted, rejected [][]byte) {
	accept := func(w *bitWriter, want string) { accepted = append(accepted, zlibWrap(w.out, []byte(want))) }
	reject := func(w *bitWriter) { rejected = append(rejected, zlibWrap(w.out, nil)) }
	fixedBlock := func() *bitWriter {
		w := &bitWriter{}
		w.bits(1, 1)
		w.bits(1, 2)
		return w
	}
	const eob = 256

	// Fixed block whose first symbol is a match: distance 1, no output yet.
	w := fixedBlock()
	w.code(1, 7) // symbol 257: length 3
	w.code(0, 5) // distance 1
	w.code(0, 7) // end of block
	reject(w)

	// Fixed block: "a", then a match of length 258 overlapping itself at
	// distance 1.
	w = fixedBlock()
	w.code(0x30+'a', 8)
	w.code(0xc0+285-280, 8)
	w.code(0, 5)
	w.code(0, 7)
	accept(w, strings.Repeat("a", 259))

	// Fixed block using symbols the code has but the format does not:
	// length symbol 286, distance symbol 30.
	w = fixedBlock()
	w.code(0xc0+286-280, 8)
	reject(w)
	w = fixedBlock()
	w.code(0x30+'a', 8)
	w.code(1, 7)
	w.code(30, 5)
	reject(w)

	// Reserved block type.
	w = &bitWriter{}
	w.bits(1, 1)
	w.bits(3, 2)
	reject(w)

	// Stored block whose length and its complement disagree.
	reject(&bitWriter{out: []byte{1, 5, 0, 0, 0, 'h', 'e', 'l', 'l', 'o'}})

	// Precode faults: over-subscribed (four one-bit codewords), incomplete
	// (a lone two-bit codeword), and headers declaring more
	// literal/length or distance codes than exist.
	reject(dynamicHeader(257, 1, 1, 1, 1, 1))
	reject(dynamicHeader(257, 1, 2, 0, 0, 0))
	reject(dynamicHeader(287, 1, 1, 1, 0, 0))
	reject(dynamicHeader(257, 31, 1, 1, 0, 0))

	// Precode {0: codeword 0, 16: codeword 1}: "repeat the previous
	// length" with no previous length.
	w = dynamicHeader(257, 1, 1, 0, 0, 1)
	w.code(1, 1)
	w.bits(0, 2)
	reject(w)

	// Precode {1: codeword 0, 18: codeword 1}: two runs of 138 zeros
	// overrun the 258 declared lengths.
	runs := make([]uint, 18)
	runs[2], runs[17] = 1, 1
	w = dynamicHeader(257, 1, runs...)
	w.code(1, 1)
	w.bits(127, 7)
	w.code(1, 1)
	w.bits(127, 7)
	reject(w)

	// One-symbol codes: end-of-block is the only literal/length codeword
	// and distance 1 the only distance codeword, both one bit long. zlib
	// tolerates the incomplete code; the unassigned codeword is an error.
	lens := make([]uint, 257)
	lens[eob] = 1
	w, lit, _ := dynamicBlock(lens, []uint{1})
	lit(eob)
	accept(w, "")
	w, _, _ = dynamicBlock(lens, []uint{1})
	w.bits(1, 1)
	reject(w)

	// Literals only, with an empty distance code.
	lens = make([]uint, 257)
	lens['a'], lens[eob] = 1, 1
	w, lit, _ = dynamicBlock(lens, []uint{0})
	lit('a')
	lit('a')
	lit(eob)
	accept(w, "aa")
	// A match against that empty distance code.
	lens = make([]uint, 258)
	lens['a'], lens[eob], lens[257] = 1, 2, 2
	w, lit, _ = dynamicBlock(lens, []uint{0})
	lit('a')
	lit(257)
	w.bits(0, 16)
	reject(w)

	// Over-subscribed and incomplete literal/length codes.
	lens = make([]uint, 257)
	lens['a'], lens['b'], lens[eob] = 1, 1, 1
	w, _, _ = dynamicBlock(lens, []uint{1})
	reject(w)
	lens = make([]uint, 257)
	lens['a'], lens[eob] = 2, 2
	w, _, _ = dynamicBlock(lens, []uint{1})
	reject(w)
	// No end-of-block codeword: the block cannot end.
	lens = make([]uint, 257)
	lens['a'], lens['b'] = 1, 1
	w, _, _ = dynamicBlock(lens, []uint{1})
	w.bits(0, 64)
	reject(w)

	// Codewords of every length 1..15 in both codes, so both tables need
	// their second level; the matches reach back 1 and 193 bytes.
	lens = make([]uint, 258)
	for i := uint(1); i <= 14; i++ {
		lens['a'+i-1] = i // 'a'..'n'
	}
	lens[eob], lens[257] = 15, 15
	distLens := make([]uint, 16)
	for i := range distLens {
		distLens[i] = min(uint(i)+1, 15)
	}
	w, lit, dist := dynamicBlock(lens, distLens)
	want := ""
	for c := uint('a'); c < 'a'+14; c++ {
		lit(c)
		want += string(rune(c))
	}
	for i := 0; i < 70; i++ { // 14 + 210 bytes: distance 193 is in reach
		lit(257)
		dist(0)
		want += want[len(want)-1:] + want[len(want)-1:] + want[len(want)-1:]
	}
	lit(257)
	dist(15) // base 193, six extra bits
	w.bits(0, 6)
	want += want[len(want)-193 : len(want)-190]
	lit(eob)
	accept(w, want)
	return accepted, rejected
}

// fixedWriter assembles streams of fixed-code blocks, keeping what they
// decode to.
type fixedWriter struct {
	bitWriter
	lens                []uint
	litCodes, distCodes []uint
	want                []byte
}

func newFixedWriter() *fixedWriter {
	w := &fixedWriter{lens: make([]uint, len(fixedLens))}
	for i, l := range fixedLens {
		w.lens[i] = uint(l)
	}
	w.litCodes, w.distCodes = canonical(w.lens[:numLitLen]), canonical(w.lens[numLitLen:])
	return w
}

// block starts a fixed-code block.
func (w *fixedWriter) block(final bool) {
	if final {
		w.bits(1, 1)
	} else {
		w.bits(0, 1)
	}
	w.bits(1, 2)
}

// literals writes n literals counting up from first.
func (w *fixedWriter) literals(first byte, n int) {
	for i := 0; i < n; i++ {
		b := first + byte(i)
		w.code(w.litCodes[b], w.lens[b])
		w.want = append(w.want, b)
	}
}

func (w *fixedWriter) match(dist, length int) {
	// symbol writes the symbol of results whose range holds v, and the
	// extra bits that place v in it.
	symbol := func(results []uint32, first int, codes, lens []uint, v int) {
		sym := first
		for sym+1 < len(results) && results[sym+1]&entInvalid == 0 && int(results[sym+1]>>16) <= v {
			sym++
		}
		w.code(codes[sym], lens[sym])
		w.bits(uint(v)-uint(results[sym]>>16), uint(results[sym]>>8&15))
	}
	symbol(litLenResults[:], 257, w.litCodes, w.lens[:numLitLen], length)
	symbol(distResults[:], 0, w.distCodes, w.lens[numLitLen:], dist)
	for i := 0; i < length; i++ {
		w.want = append(w.want, w.want[len(w.want)-dist])
	}
}

// end ends the block.
func (w *fixedWriter) end() { w.code(w.litCodes[256], w.lens[256]) }

// padding ends the stream with n empty stored blocks and an empty final
// fixed block: input the decoder reads after the output is complete.
func (w *fixedWriter) padding(n int) {
	for i := 0; i < n; i++ {
		w.bits(0, 3)
		w.n = 0
		w.out = append(w.out, 0, 0, 0xff, 0xff)
	}
	w.block(true)
	w.end()
}

func (w *fixedWriter) zlib() []byte { return zlibWrap(w.out, w.want) }

// matchStream is one fixed-code block: dist literals, a single match of
// the given length at that distance, then trail more literals. Decoded
// into exactly its size, the match ends trail bytes before the end of
// the output: all the room a copy made in whole words has to overrun.
func matchStream(dist, length, trail int) []byte {
	w := newFixedWriter()
	w.block(true)
	w.literals('a', dist)
	w.match(dist, length)
	w.literals('A', trail)
	w.end()
	return w.zlib()
}

// marginSeeds are streams that decode across the edges of huffmanBlock's
// fast loop, every one of them accepted: its output ending at, inside
// and past the output margin, a match started in the fast loop that
// crosses it, final symbols inside the input margin, and a block that
// ends and another that starts while the fast loop runs. Each leads with
// enough literals for the fast loop to start.
func marginSeeds() [][]byte {
	const lead = 4 * fastIn
	var seeds [][]byte
	// Literals alone, the output ending at every offset from the margin;
	// the padding keeps the input margin out of the way.
	for n := lead - fastOut - 1; n <= lead+fastOut+1; n++ {
		w := newFixedWriter()
		w.block(false)
		w.literals('!', n)
		w.end()
		w.padding(fastIn)
		seeds = append(seeds, w.zlib())
	}
	// A match that starts inside the margins and ends in the last bytes of
	// the output, or on them.
	for _, dist := range []int{1, 7, 8, lead} {
		for _, length := range []int{3, fastOut + 1, 10, 258} {
			for trail := 0; trail <= fastOut; trail++ {
				w := newFixedWriter()
				w.block(false)
				w.literals('!', lead)
				w.match(dist, length)
				w.literals('a', trail)
				w.end()
				w.padding(fastIn)
				seeds = append(seeds, w.zlib())
			}
		}
	}
	// The last symbols inside the input margin, no padding behind them.
	for trail := 0; trail <= fastIn; trail++ {
		w := newFixedWriter()
		w.block(true)
		w.literals('!', lead)
		w.match(lead, 20)
		w.literals('a', trail)
		w.end()
		seeds = append(seeds, w.zlib())
	}
	// Two blocks, the first ending while the fast loop runs.
	w := newFixedWriter()
	w.block(false)
	w.literals('!', lead)
	w.end()
	w.block(false)
	w.literals('A', lead)
	w.match(lead, 40)
	w.end()
	w.padding(fastIn)
	seeds = append(seeds, w.zlib())
	return seeds
}

func inflateSeeds(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(5))
	text := bytes.Repeat([]byte("<html><body>relative lempel-ziv factorization</body></html>\n"), 40)
	noise := make([]byte, 70<<10)
	rng.Read(noise)
	positions := make([]byte, 0, 1732) // like a document's U32 positions
	for i := 0; i < 433; i++ {
		positions = binary.LittleEndian.AppendUint32(positions, uint32(rng.Intn(320<<10)))
	}
	mixed := append(append(append([]byte{}, text...), noise[:3000]...), text...)

	seeds := [][]byte{
		stdDeflate(t, zlib.NoCompression, []byte("stored block")),
		stdDeflate(t, zlib.NoCompression, noise),                               // several stored blocks
		stdDeflate(t, zlib.BestCompression, []byte("hello hello hello hello")), // fixed
		stdDeflate(t, zlib.BestCompression, text),                              // dynamic
		stdDeflate(t, zlib.BestCompression, positions),
		stdDeflate(t, zlib.BestSpeed, mixed),
		stdDeflate(t, zlib.HuffmanOnly, text),
		stdDeflate(t, zlib.BestCompression, text, noise[:100], text), // multi-block with sync markers
		stdDeflate(t, zlib.BestCompression),                          // nothing but the empty final block
		stdDeflate(t, zlib.BestCompression, make([]byte, 80<<10)),    // longer than the fuzz cap
		stdDeflate(t, zlib.BestCompression, mixed, mixed, mixed),
	}
	good := seeds[3]
	seeds = append(seeds,
		good[:len(good)-5], // truncated inside the checksum and data
		good[:len(good)/2], // truncated mid-block
		good[:2],           // header only
		append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]^1), // bad Adler
		append(append([]byte{}, good...), "trailing"...),
		append([]byte{0x78, 0xbb}, good[2:]...), // FDICT set
		append([]byte{0x88, 0x1c}, good[2:]...), // window too large
		append([]byte{0x78, 0x9d}, good[2:]...), // header check fails
	)
	accepted, rejected := handmadeStreams()
	seeds = append(append(seeds, accepted...), rejected...)
	// Matches at the distances around a word, where the kernel goes from
	// copying bytes to copying words: at every length with the match
	// ending on the last byte of the output, and at the lengths that
	// overrun most with every amount of room up to a word.
	for dist := 1; dist <= 9; dist++ {
		for length := 3; length <= 258; length++ {
			seeds = append(seeds, matchStream(dist, length, 0))
		}
		for length := 3; length <= 18; length++ {
			for trail := 1; trail <= 8; trail++ {
				seeds = append(seeds, matchStream(dist, length, trail))
			}
		}
	}
	seeds = append(seeds, marginSeeds()...)
	// Faults met inside the fast loop: a length symbol and a distance
	// symbol the format lacks, and a distance reaching before the output.
	for _, fault := range []func(w *fixedWriter){
		func(w *fixedWriter) { w.code(w.litCodes[286], w.lens[286]) },
		func(w *fixedWriter) {
			w.code(w.litCodes[257], w.lens[257])
			w.code(w.distCodes[30], w.lens[numLitLen+30])
		},
		func(w *fixedWriter) {
			w.code(w.litCodes[257], w.lens[257])
			w.code(w.distCodes[29], w.lens[numLitLen+29])
			w.bits(0, 13)
		},
	} {
		w := newFixedWriter()
		w.block(false)
		w.literals('!', 4*fastIn)
		fault(w)
		w.end()
		w.padding(fastIn)
		seeds = append(seeds, w.zlib())
	}
	// Cut short inside the input margin: in the last bytes of the deflate
	// data and in the Adler-32.
	long := seeds[4]
	for cut := 1; cut <= fastIn+4; cut++ {
		seeds = append(seeds, long[:len(long)-cut])
	}
	return seeds
}

// FuzzInflateEquivalence holds the inflate kernel to compress/zlib on
// arbitrary input: the same bytes, or both reject.
func FuzzInflateEquivalence(f *testing.F) {
	for _, s := range inflateSeeds(f) {
		f.Add(s)
	}
	const max = 64 << 10
	reused := new(ZlibDecoder)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := stdInflate(data, max)
		if len(data) >= 2 && data[1]&0x20 != 0 {
			// compress/zlib accepts a preset-dictionary header naming the
			// empty dictionary; the kernel refuses every such header.
			wantErr = zlib.ErrDictionary
		}
		prefix := []byte("kept")
		for _, dec := range []*ZlibDecoder{reused, new(ZlibDecoder)} {
			got, err := dec.DecodeUpTo(prefix, data, max)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("kernel err = %v, compress/zlib err = %v", err, wantErr)
			}
			if err != nil {
				if !errors.Is(err, ErrCorruptBlock) || !bytes.Equal(got, prefix) {
					t.Fatalf("rejected stream: err = %v, dst = %q", err, got)
				}
				continue
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("kernel inflates to %d bytes, compress/zlib to %d, or they differ", len(got)-len(prefix), len(want))
			}
			if out, err := dec.Decode(nil, data, len(want)); err != nil || !bytes.Equal(out, want) {
				t.Fatalf("exact-length decode: %v", err)
			}
			if _, err := dec.Decode(nil, data, len(want)+1); err == nil {
				t.Fatal("accepted a stream one byte short of its declared size")
			}
			if len(want) > 0 {
				if _, err := dec.Decode(nil, data, len(want)-1); err == nil {
					t.Fatal("accepted a stream one byte past its declared size")
				}
			}
		}
	})
}

// TestHandmadeStreamsAreWhatTheyClaim keeps the hand-assembled seeds
// honest against the reference: a stream meant to exercise an accepted
// corner must not be rejected for some unrelated slip, and vice versa.
func TestHandmadeStreamsAreWhatTheyClaim(t *testing.T) {
	accepted, rejected := handmadeStreams()
	for i, s := range accepted {
		if _, err := stdInflate(s, 64<<10); err != nil {
			t.Errorf("accepted stream %d: compress/zlib says %v", i, err)
		}
	}
	for i, s := range rejected {
		if _, err := stdInflate(s, 64<<10); err == nil {
			t.Errorf("rejected stream %d: compress/zlib accepts it", i)
		}
	}
	for i, s := range marginSeeds() {
		if _, err := stdInflate(s, 64<<10); err != nil {
			t.Errorf("margin stream %d: compress/zlib says %v", i, err)
		}
	}
	for _, m := range [][3]int{{1, 3, 0}, {1, 258, 0}, {7, 8, 1}, {8, 8, 0}, {9, 17, 7}, {9, 258, 8}} {
		if out, err := stdInflate(matchStream(m[0], m[1], m[2]), 64<<10); err != nil || len(out) != m[0]+m[1]+m[2] {
			t.Errorf("match of %d bytes at distance %d, %d literals behind it: compress/zlib yields %d bytes, %v", m[1], m[0], m[2], len(out), err)
		}
	}
}

// positionsStream stands in for one document's Z-coded position stream,
// the stream a cold RLZ read mostly spends its time inflating: 467 factor
// positions as little-endian words into a 96 KiB dictionary, deflated at
// BestCompression into one dynamic block of ~1.3 KB (and the empty stored
// block compress/flate ends every stream with).
func positionsStream(tb testing.TB) (raw, comp []byte) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 467; i++ {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(rng.Intn(96<<10)))
	}
	return raw, ZlibCompress(nil, raw)
}

// BenchmarkInflateParts prices the three parts of inflating the position
// stream apart: the dynamic header with its three tables, the symbol loop
// on tables already built, and the Adler-32 of the output. "whole" is the
// Decode they add up to.
func BenchmarkInflateParts(b *testing.B) {
	raw, comp := positionsStream(b)
	deflated := comp[2 : len(comp)-4]
	var f inflater
	header := func(b *testing.B) bitReader {
		br := bitReader{src: deflated}
		br.refill()
		if hdr := br.take(3); hdr>>1 != 2 {
			b.Fatalf("block header %03b, want a dynamic block", hdr)
		}
		if err := f.readDynamic(&br); err != nil {
			b.Fatal(err)
		}
		return br
	}
	afterHeader := header(b)
	out := make([]byte, len(raw))
	b.Run("header", func(b *testing.B) {
		b.ReportMetric(float64(len(comp)), "comp-bytes")
		for i := 0; i < b.N; i++ {
			header(b)
		}
	})
	b.Run("symbols", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			br := afterHeader
			if n, err := f.huffmanBlock(&br, out, 0); err != nil || n != len(raw) {
				b.Fatalf("inflated %d of %d bytes: %v", n, len(raw), err)
			}
		}
	})
	b.Run("adler32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			adler32.Checksum(out)
		}
	})
	b.Run("whole", func(b *testing.B) {
		var dec ZlibDecoder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dec.Decode(out[:0], comp, len(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestInflateAllocatesNothing pins the kernel's reason to exist next to
// compress/zlib: a warm decoder allocates nothing.
func TestInflateAllocatesNothing(t *testing.T) {
	seeds := inflateSeeds(t)
	dec := new(ZlibDecoder)
	buf := make([]byte, 0, 128<<10)
	for _, s := range append(seeds[:9:9], marginSeeds()...) {
		s := s
		if n := testing.AllocsPerRun(20, func() {
			if _, err := dec.DecodeUpTo(buf, s, 100<<10); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v allocations per decode, want 0", n)
		}
	}
}

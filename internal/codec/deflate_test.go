package codec

import (
	"bytes"
	"compress/zlib"
	"math/rand"
	"os"
	"testing"
)

// deflateSeeds are the inputs whose shapes reach every path of the
// deflater: nothing, a byte or three, a document's position stream,
// text longer than the 32 KiB match window, noise that is stored, more
// than maxFlateBlockTokens literals (several Huffman blocks), and zeros
// past the 64 KiB buffer (window shifts).
func deflateSeeds(t testing.TB) [][]byte {
	// The position stream of the median document of a 32 MiB corpus.Gov
	// collection (seed 1) against its 1 % SampleEven dictionary, U-coded.
	positions, err := os.ReadFile("testdata/positions.bin")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	words := []string{"<p>", "relative ", "lempel-ziv ", "factorization ", "of ", "web ", "collections ", "</p>\n", "the ", "dictionary "}
	var text []byte
	for len(text) < 40<<10 {
		text = append(text, words[rng.Intn(len(words))]...)
	}
	noise := make([]byte, 80<<10)
	rng.Read(noise)
	// Letters of a skewed distribution: few matches, so more tokens than
	// a block holds, and each block is worth a Huffman code.
	skewed := make([]byte, 48<<10)
	for i := range skewed {
		skewed[i] = 'a' + byte(rng.ExpFloat64()*3)%26
	}
	return [][]byte{{}, {'a'}, {'a', 'b'}, {0, 0, 0}, positions, text, noise, skewed, make([]byte, 100_000)}
}

// FuzzDeflateEquivalence holds the deflater to compress/zlib at
// BestCompression on arbitrary input: a new deflater, and one kept warm
// by every input before, both emit a fresh writer's bytes.
//
// Fuzz it with -fuzzminimizetime=10x. By default every input that finds
// new coverage is minimized for up to a minute, and one grown from the
// 80–100 KB seeds takes all of it: the fuzzer stalls at 0 execs/s.
func FuzzDeflateEquivalence(f *testing.F) {
	for _, s := range deflateSeeds(f) {
		f.Add(s)
	}
	warm := new(deflater)
	f.Fuzz(func(t *testing.T, src []byte) {
		want := append([]byte("kept"), stdDeflate(t, zlib.BestCompression, src)...)
		for _, d := range []*deflater{warm, new(deflater)} {
			if got := d.compress([]byte("kept"), src); !bytes.Equal(got, want) {
				t.Fatalf("%d-byte input: %d bytes, compress/zlib writes %d, or they differ", len(src), len(got), len(want))
			}
		}
	})
}

// TestDeflateHashOffsetWrap starts streams with hashOffset at and around
// maxHashOffset: reset clears the tables once the offset would pass it,
// and a stream longer than the buffer crosses it mid-way, where the
// tables are rebased. Neither may change a byte.
func TestDeflateHashOffsetWrap(t *testing.T) {
	seeds := deflateSeeds(t)
	text := seeds[5]
	for i, src := range seeds {
		for _, below := range []int{-1, 0, 1, windowSize} {
			// A deflater whose offset has grown, over many streams, to where
			// the next reset leaves it below maxHashOffset by below (reset
			// adds the last stream's windowEnd). Moving the offset forward
			// keeps every entry the tables hold below it.
			d := new(deflater)
			d.compress(nil, text)
			d.hashOffset = maxHashOffset - d.windowEnd - below
			for j, in := range [][]byte{src, text} { // the stream, and the one after it
				if got, want := d.compress(nil, in), stdDeflate(t, zlib.BestCompression, in); !bytes.Equal(got, want) {
					t.Fatalf("seed %d, %d below maxHashOffset, stream %d: differs from compress/zlib", i, below, j)
				}
				if d.hashOffset > maxHashOffset {
					t.Fatalf("seed %d, %d below maxHashOffset, stream %d: ended at hashOffset %d", i, below, j, d.hashOffset)
				}
			}
			if below < 0 && d.hashOffset > maxHashOffset/2 {
				t.Fatalf("seed %d: reset did not clear the tables past maxHashOffset", i)
			}
		}
	}
}

// TestWriteTokensAfterPendingBits starts writeTokens with as many bits
// pending as writeBits leaves (47), then a match of the longest codeword
// and extra bits in both alphabets: 48 bits more, none of which may be
// lost. The reference writes the same fields through writeBits.
func TestWriteTokensAfterPendingBits(t *testing.T) {
	var litCodes [maxNumLit]hcode
	var offCodes [offsetCodeCount]hcode
	for i := range litCodes {
		litCodes[i] = hcode{code: uint16(0x7fff - i), len: 15}
	}
	for i := range offCodes {
		offCodes[i] = hcode{code: uint16(0x4321 + i), len: 15}
	}
	// Length 257 (code 27, five extra bits) at distance 32 768 (code 29,
	// thirteen), then a literal.
	tokens := []token{matchToken(254, 32767), 'x', matchToken(254, 32767)}
	got, want := new(deflater), new(deflater)
	for pending := uint(0); pending <= 47; pending++ {
		got.out, got.bits, got.nbits = nil, 1<<pending-1, pending
		want.out, want.bits, want.nbits = nil, got.bits, got.nbits
		got.writeTokens(tokens, litCodes[:], offCodes[:])
		got.flush()
		for _, tok := range tokens {
			if tok < matchType {
				want.writeCode(litCodes[tok])
				continue
			}
			want.writeCode(litCodes[lengthCodesStart+27])
			want.writeBits(254-lengthBase[27], 5)
			want.writeCode(offCodes[29])
			want.writeBits(32767-offsetBase[29], 13)
		}
		want.flush()
		if !bytes.Equal(got.out, want.out) {
			t.Fatalf("%d bits pending: writeTokens wrote % x, want % x", pending, got.out, want.out)
		}
	}
}

package codec

import (
	"bytes"
	"compress/zlib"
	"errors"
	"math/rand"
	"testing"

	"rlz/internal/lz77"
)

// corpus builds a mix of block shapes: empty, tiny, highly redundant,
// and incompressible.
func corpus() [][]byte {
	rng := rand.New(rand.NewSource(11))
	rnd := make([]byte, 64<<10)
	rng.Read(rnd)
	red := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 2000)
	return [][]byte{
		{},
		[]byte("x"),
		[]byte("hello, world"),
		red,
		rnd,
		append(append([]byte{}, red[:1000]...), rnd[:1000]...),
	}
}

func allCodecs(t *testing.T) []Codec {
	t.Helper()
	var out []Codec
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	if len(out) < 4 {
		t.Fatalf("expected at least 4 registered codecs, have %v", Names())
	}
	return out
}

func TestRoundTripAllCodecs(t *testing.T) {
	for _, c := range allCodecs(t) {
		dec := c.NewDecoder()
		for i, src := range corpus() {
			comp, err := c.Compress(nil, src)
			if err != nil {
				t.Fatalf("%s block %d: compress: %v", c.Name(), i, err)
			}
			got, err := dec.Decode(nil, comp, len(src))
			if err != nil {
				t.Fatalf("%s block %d: decode: %v", c.Name(), i, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s block %d: round trip mismatch (%d vs %d bytes)", c.Name(), i, len(got), len(src))
			}
		}
	}
}

// TestDecodeAppends pins the append contract: Decode extends dst without
// touching the bytes already in it.
func TestDecodeAppends(t *testing.T) {
	for _, c := range allCodecs(t) {
		src := []byte("payload payload payload")
		comp, err := c.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix-")
		got, err := c.NewDecoder().Decode(append([]byte{}, prefix...), comp, len(src))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if string(got) != "prefix-"+string(src) {
			t.Fatalf("%s: append contract broken: %q", c.Name(), got)
		}
	}
}

// TestDecoderReuse drives one decoder through many decodes (the pooled
// hot path) interleaved with corrupt inputs: state from a failed decode
// must not leak into the next.
func TestDecoderReuse(t *testing.T) {
	for _, c := range allCodecs(t) {
		dec := c.NewDecoder()
		blocks := corpus()
		for round := 0; round < 3; round++ {
			for i, src := range blocks {
				comp, err := c.Compress(nil, src)
				if err != nil {
					t.Fatal(err)
				}
				if i%2 == 1 && len(comp) > 8 {
					bad := append([]byte{}, comp...)
					bad[len(bad)/2] ^= 0xFF
					// Most flips must error; a rare flip can survive (e.g.
					// inside an unused Huffman table slot) but must then
					// still produce the right bytes or an error — checked
					// by the next clean decode either way.
					if out, err := dec.Decode(nil, bad, len(src)); err == nil && !bytes.Equal(out, src) {
						t.Fatalf("%s: corrupt block decoded to wrong bytes without error", c.Name())
					}
				}
				got, err := dec.Decode(nil, comp, len(src))
				if err != nil {
					t.Fatalf("%s round %d block %d: %v", c.Name(), round, i, err)
				}
				if !bytes.Equal(got, src) {
					t.Fatalf("%s round %d block %d: mismatch after reuse", c.Name(), round, i)
				}
			}
		}
	}
}

// TestWrongRawLenRejected: Decode must reject a stream whose inflated
// size differs from the caller's metadata in either direction — that
// mismatch is the blockstore's decompression-bomb and truncation guard.
func TestWrongRawLenRejected(t *testing.T) {
	for _, c := range allCodecs(t) {
		src := bytes.Repeat([]byte("block data "), 500)
		comp, err := c.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		dec := c.NewDecoder()
		for _, rawLen := range []int{0, 1, len(src) - 1, len(src) + 1, len(src) * 2} {
			if _, err := dec.Decode(nil, comp, rawLen); !errors.Is(err, ErrCorruptBlock) {
				t.Errorf("%s: rawLen %d (real %d): err = %v, want ErrCorruptBlock", c.Name(), rawLen, len(src), err)
			}
		}
	}
}

// TestTruncatedStreamRejected: every proper prefix of a compressed block
// must fail, never decode partially.
func TestTruncatedStreamRejected(t *testing.T) {
	for _, c := range allCodecs(t) {
		src := bytes.Repeat([]byte("truncation test data "), 200)
		comp, err := c.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		dec := c.NewDecoder()
		for cut := 0; cut < len(comp); cut += 7 {
			if _, err := dec.Decode(nil, comp[:cut], len(src)); err == nil {
				t.Errorf("%s: truncation to %d of %d decoded without error", c.Name(), cut, len(comp))
			}
		}
	}
}

func TestByNameUnknownListsCodecs(t *testing.T) {
	_, err := ByName("bogus")
	if err == nil {
		t.Fatal("ByName(bogus) succeeded")
	}
	if want := `codec: unknown algorithm "bogus" (want [flate lzma lzr zlib])`; err.Error() != want {
		t.Errorf("ByName(bogus) = %q, want %q", err, want)
	}
}

func TestRegistryIDs(t *testing.T) {
	// The IDs are the on-disk header bytes; pin them.
	for id, name := range map[byte]string{'z': "zlib", 'f': "flate", 'l': "lzma", 'r': "lzr"} {
		c, ok := ByID(id)
		if !ok || c.Name() != name {
			t.Errorf("ByID(%q) = %v, want codec %q", id, c, name)
		}
	}
}

// TestFlateSmallerSlowerTradeoff sanity-checks the ladder on redundant
// text: zlib compresses at least as well as flate, flate at least as
// well as lzr is not guaranteed — but all must be smaller than the input.
func TestLadderCompressesRedundantText(t *testing.T) {
	src := bytes.Repeat([]byte("redundant redundant redundant text block "), 1000)
	for _, c := range allCodecs(t) {
		comp, err := c.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		if len(comp) >= len(src) {
			t.Errorf("%s: %d bytes compressed to %d", c.Name(), len(src), len(comp))
		}
	}
}

func TestPool(t *testing.T) {
	c, err := ByName("zlib")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(c)
	src := []byte("pooled decode")
	comp, err := c.Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d := p.Get()
		got, err := d.Decode(nil, comp, len(src))
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("pooled decode %d: %v", i, err)
		}
		p.Put(d)
	}
}

// TestLZROptionsDecodeAnyStream: tuning affects Compress only; a
// default-tuned decoder must decode a stream built with custom tuning.
func TestLZROptionsDecodeAnyStream(t *testing.T) {
	src := bytes.Repeat([]byte("window tuning "), 4000)
	tuned := LZR(lz77.Options{WindowSize: 4 << 20, MaxChain: 64})
	comp, err := tuned.Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ByName("lzr")
	if err != nil {
		t.Fatal(err)
	}
	got, err := plain.NewDecoder().Decode(nil, comp, len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("cross-tuning decode: %v", err)
	}
}

// TestZlibCompressMatchesFreshWriter pins the pooled compressors: a
// stream from a warm, reused compressor is byte-identical to what a
// compress/zlib writer built for that one call emits, at both levels —
// the module's deflater at best compression, compress/zlib's own at
// BestSpeed. Archives must not depend on what was compressed before
// them, nor on which deflater wrote them. The deflater's seeds add input
// past the 64 KiB window buffer and blocks of more than 16 Ki tokens.
func TestZlibCompressMatchesFreshWriter(t *testing.T) {
	inputs := append(corpus(), deflateSeeds(t)...)
	for _, c := range []struct {
		name  string
		level int
	}{{"zlib", zlib.BestCompression}, {"flate", zlib.BestSpeed}} {
		cd, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for i, src := range inputs {
				var fresh bytes.Buffer
				zw, err := zlib.NewWriterLevel(&fresh, c.level)
				if err != nil {
					t.Fatal(err)
				}
				zw.Write(src)
				zw.Close()
				got, err := cd.Compress([]byte("prefix"), src)
				if err != nil || !bytes.Equal(got, append([]byte("prefix"), fresh.Bytes()...)) {
					t.Fatalf("%s round %d block %d: pooled writer differs from a fresh one (%v)", c.name, round, i, err)
				}
			}
		}
	}
	src := bytes.Repeat([]byte("factor stream "), 100)
	zc, _ := ByID('z')
	if want, _ := zc.Compress(nil, src); !bytes.Equal(ZlibCompress(nil, src), want) {
		t.Fatal("ZlibCompress is not the zlib codec")
	}
}

// Package codec is the per-block compressor table behind the block
// backend (internal/blockstore). The paper's baseline fixes one adaptive
// compressor per archive; production serving wants a ladder of
// ratio-vs-decode-speed points, so the algorithm byte the blockstore has
// always recorded in its header becomes a key into this table and
// readers auto-detect whichever codec built the archive.
//
// The package owns both directions of zlib for the module: the inflate
// kernel (inflate.go) behind every zlib and flate block and every Z-coded
// RLZ stream, and the deflater (deflate.go) behind ZlibCompress and the
// zlib codec, whose output is compress/zlib's at BestCompression byte for
// byte. Only the flate codec still compresses with compress/zlib.
//
// Three design points matter for the hot read path:
//
//   - Decoders are stateful and pooled. A zlib decoder's Huffman tables
//     and header scratch are ~18 KB; constructing them per block read
//     (what the blockstore originally did, with compress/zlib's ~40 KB
//     reader) dominates the allocation profile of an uncached read.
//     Pooled decoders make repeated decodes allocation-free in steady
//     state.
//   - Decode takes the block's exact uncompressed size, derived by the
//     caller from metadata it already validated (the blockstore's
//     document locators). A stream that inflates to any other size is
//     corrupt, and a hostile stream can never make a decoder allocate
//     beyond that budget.
//   - Most symbols decode in a fast loop that runs while at least 16
//     bytes of input and 3 of output are left (fastIn, fastOut). Inside
//     those margins neither can run out within one pass, so the loop
//     skips the per-literal truncation and output-length checks; a
//     match is still checked against the output left. The last bytes
//     of a block, and any stream shorter than the margins, decode in
//     the careful loop, one symbol and every check at a time.
package codec

import (
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/adler32"
	"sync"

	"rlz/internal/lz77"
)

// ErrCorruptBlock is wrapped by decoders when a block fails structural or
// checksum validation.
var ErrCorruptBlock = errors.New("codec: corrupt block")

// Decoder holds one decompressor's reusable state. Decoders are NOT safe
// for concurrent use; callers keep them in a pool (see Pool) and draw one
// per decode.
type Decoder interface {
	// Decode appends the decompressed form of src to dst and returns the
	// extended slice. rawLen is the block's exact uncompressed size per
	// the caller's own trusted metadata: a stream that inflates to any
	// other size is an error, and no more than rawLen bytes are ever
	// materialized.
	Decode(dst, src []byte, rawLen int) ([]byte, error)
}

// Codec is one block compression algorithm. Compress must be safe for
// concurrent use (the parallel build pipeline shares one Codec);
// per-decode state lives in the Decoder.
type Codec interface {
	// ID is the algorithm byte recorded in the archive header.
	ID() byte
	// Name is the CLI and stats name (rlz build -alg NAME).
	Name() string
	// Compress appends the compressed form of src to dst.
	Compress(dst, src []byte) ([]byte, error)
	// NewDecoder returns fresh decoder state for this codec.
	NewDecoder() Decoder
}

// codecs is every block codec, in name order: the table ByID, ByName and
// Names read.
var codecs = [...]Codec{
	zlibCodec{id: 'f', name: "flate", compress: flateCompress},
	LZMA(lz77.Options{}),
	LZR(lz77.Options{}),
	zlibCodec{id: 'z', name: "zlib", compress: ZlibCompress},
}

// ByID resolves the algorithm byte an archive header records.
func ByID(id byte) (Codec, bool) {
	for _, c := range codecs {
		if c.ID() == id {
			return c, true
		}
	}
	return nil, false
}

// ByName resolves a CLI codec name, or returns an error naming every
// codec — the fail-fast path of rlz build -alg.
func ByName(name string) (Codec, error) {
	for _, c := range codecs {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("codec: unknown algorithm %q (want %v)", name, Names())
}

// Names lists the codec names in sorted order.
func Names() []string {
	out := make([]string, len(codecs))
	for i, c := range codecs {
		out[i] = c.Name()
	}
	return out
}

// Pool is a per-reader pool of one codec's decoders: Get draws reusable
// decoder state, Put returns it. The zero value is unusable; construct
// with NewPool.
type Pool struct {
	p sync.Pool
}

// NewPool returns a decoder pool for c.
func NewPool(c Codec) *Pool {
	return &Pool{p: sync.Pool{New: func() any { return c.NewDecoder() }}}
}

// Get draws a decoder from the pool.
func (p *Pool) Get() Decoder { return p.p.Get().(Decoder) }

// Put returns a decoder to the pool.
func (p *Pool) Put(d Decoder) { p.p.Put(d) }

// zlibCodec covers both deflate tiers: "zlib" at best compression (the
// paper's baseline, on the module's own deflater) and "flate" at
// BestSpeed (the speed tier, on compress/zlib). Both use zlib framing so
// every block carries an Adler-32 and corrupt blocks are rejected rather
// than served.
type zlibCodec struct {
	id       byte
	name     string
	compress func(dst, src []byte) []byte
}

func (c zlibCodec) ID() byte     { return c.id }
func (c zlibCodec) Name() string { return c.name }

func (c zlibCodec) Compress(dst, src []byte) ([]byte, error) {
	return c.compress(dst, src), nil
}

func (c zlibCodec) NewDecoder() Decoder { return new(ZlibDecoder) }

// ZlibCompress appends src compressed as a zlib stream at best
// compression to dst: the paper's compressor, behind the block backend's
// baseline and RLZ's Z coding of factor streams. The bytes are exactly
// compress/zlib's at BestCompression; the deflater (deflate.go) is
// pooled, since its ~850 KB of tables and window dwarf the kilobyte
// streams it is mostly asked to compress.
func ZlibCompress(dst, src []byte) []byte {
	d := deflaters.Get().(*deflater)
	dst = d.compress(dst, src)
	deflaters.Put(d)
	return dst
}

// flateEncoders pools compress/zlib BestSpeed writers, each writing to
// its own append buffer. A Reset writer emits the same bytes as a fresh
// one.
var flateEncoders = sync.Pool{New: func() any {
	e := new(flateEncoder)
	e.zw, _ = zlib.NewWriterLevel(&e.out, zlib.BestSpeed) // a valid level: no error
	return e
}}

type flateEncoder struct {
	zw  *zlib.Writer
	out appendWriter
}

type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func flateCompress(dst, src []byte) []byte {
	e := flateEncoders.Get().(*flateEncoder)
	e.out.b = dst
	e.zw.Reset(&e.out)
	_, err := e.zw.Write(src)
	if err == nil {
		err = e.zw.Close()
	}
	dst, e.out.b = e.out.b, nil
	flateEncoders.Put(e)
	if err != nil {
		panic("codec: zlib to memory: " + err.Error()) // appendWriter cannot fail
	}
	return dst
}

// ZlibDecoder is the one zlib inflater in the module: the block
// backend's zlib and flate blocks and RLZ's Z-coded factor streams all
// decode on it. It is the inflate kernel (inflate.go) under zlib framing
// — header checked, Adler-32 verified — with the output length bounded by
// the caller before a byte is produced. The zero value is ready; keep
// decoders pooled, they are ~18 KB of tables and not safe for concurrent
// use.
type ZlibDecoder struct {
	f inflater
}

// Decode implements Decoder: the stream must inflate to exactly rawLen
// bytes.
func (d *ZlibDecoder) Decode(dst, src []byte, rawLen int) ([]byte, error) {
	out, err := d.DecodeUpTo(dst, src, rawLen)
	if err == nil && len(out)-len(dst) != rawLen {
		return dst, fmt.Errorf("%w: inflates to %d bytes, metadata says %d", ErrCorruptBlock, len(out)-len(dst), rawLen)
	}
	return out, err
}

// DecodeUpTo appends the inflated form of the zlib stream src to dst,
// for callers that know only a ceiling on its size (RLZ's vbyte length
// streams): a stream that would inflate past maxLen bytes is rejected at
// the byte that crosses it, and no more than maxLen bytes are ever
// allocated. On error dst is returned as it came.
func (d *ZlibDecoder) DecodeUpTo(dst, src []byte, maxLen int) ([]byte, error) {
	// RFC 1950: deflate with a window of at most 32 KiB, header a
	// multiple of 31. Nothing here writes preset dictionaries.
	if len(src) < 2 || src[0]&0x0f != 8 || src[0]>>4 > 7 || (uint(src[0])<<8|uint(src[1]))%31 != 0 || src[1]&0x20 != 0 {
		return dst, fmt.Errorf("%w: invalid zlib header", ErrCorruptBlock)
	}
	if maxLen < 0 { // a size computed from hostile counts can wrap
		return dst, fmt.Errorf("%w: declared size overflows", ErrCorruptBlock)
	}
	base := len(dst)
	out := grow(dst, maxLen)
	n, used, err := d.f.inflate(out[base:], src[2:])
	if err != nil {
		return dst, fmt.Errorf("%w: %v", ErrCorruptBlock, err)
	}
	sum := src[2+used:]
	if len(sum) < 4 {
		return dst, fmt.Errorf("%w: %v", ErrCorruptBlock, errInflateTruncated)
	}
	out = out[:base+n]
	if binary.BigEndian.Uint32(sum) != adler32.Checksum(out[base:]) {
		return dst, fmt.Errorf("%w: Adler-32 mismatch", ErrCorruptBlock)
	}
	return out, nil
}

// grow extends dst by n bytes, reallocating at most once.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+n]
	}
	out := make([]byte, len(dst)+n)
	copy(out, dst)
	return out
}

// lzmaCodec is the paper's lzma stand-in: the large-window LZ77 coder
// with its semi-static Huffman entropy stage (internal/lz77).
type lzmaCodec struct {
	opt lz77.Options
}

// LZMA returns the lzma-substitute codec with the given LZ77 tuning.
// Tuning affects Compress only; any instance decodes any stream.
func LZMA(opt lz77.Options) Codec { return lzmaCodec{opt: opt} }

func (c lzmaCodec) ID() byte     { return 'l' }
func (c lzmaCodec) Name() string { return "lzma" }

func (c lzmaCodec) Compress(dst, src []byte) ([]byte, error) {
	return lz77.Compress(dst, src, c.opt), nil
}

func (c lzmaCodec) NewDecoder() Decoder { return lzmaDecoder{} }

type lzmaDecoder struct{}

func (lzmaDecoder) Decode(dst, src []byte, rawLen int) ([]byte, error) {
	// The stream's own length header bounds Decompress's output;
	// checking it against the budget up front prevents a declared bomb
	// from ever being allocated.
	n, err := lz77.DeclaredLen(src)
	if err != nil {
		return dst, fmt.Errorf("%w: %v", ErrCorruptBlock, err)
	}
	if n != rawLen {
		return dst, fmt.Errorf("%w: declares %d uncompressed bytes, metadata says %d", ErrCorruptBlock, n, rawLen)
	}
	base := len(dst)
	out, err := lz77.Decompress(dst, src)
	if err != nil {
		return out[:base], fmt.Errorf("%w: %v", ErrCorruptBlock, err)
	}
	return out, nil
}

// lzrCodec is the no-entropy-stage LZ variant: the same parse as the
// lzma stand-in with byte-aligned token coding instead of Huffman — the
// fastest decode in the ladder.
type lzrCodec struct {
	opt lz77.Options
}

// LZR returns the no-entropy-stage LZ codec with the given LZ77 tuning.
// Tuning affects Compress only; any instance decodes any stream.
func LZR(opt lz77.Options) Codec { return lzrCodec{opt: opt} }

func (c lzrCodec) ID() byte     { return 'r' }
func (c lzrCodec) Name() string { return "lzr" }

func (c lzrCodec) Compress(dst, src []byte) ([]byte, error) {
	return lz77.CompressRaw(dst, src, c.opt), nil
}

func (c lzrCodec) NewDecoder() Decoder { return lzrDecoder{} }

type lzrDecoder struct{}

func (lzrDecoder) Decode(dst, src []byte, rawLen int) ([]byte, error) {
	n, err := lz77.DeclaredLenRaw(src)
	if err != nil {
		return dst, fmt.Errorf("%w: %v", ErrCorruptBlock, err)
	}
	if n != rawLen {
		return dst, fmt.Errorf("%w: declares %d uncompressed bytes, metadata says %d", ErrCorruptBlock, n, rawLen)
	}
	base := len(dst)
	out, err := lz77.DecompressRaw(dst, src)
	if err != nil {
		return out[:base], fmt.Errorf("%w: %v", ErrCorruptBlock, err)
	}
	return out, nil
}

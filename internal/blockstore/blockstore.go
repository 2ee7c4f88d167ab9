// Package blockstore implements the baseline document storage scheme the
// paper compares against (§2.2): documents are grouped into fixed-size
// blocks and each block is compressed independently with an adaptive
// compressor — zlib (as Lucene/Indri do) or this repository's large-window
// LZ77 coder standing in for lzma — plus the faster codecs the serving
// tier grew (see internal/codec).
//
// Retrieving a document requires reading and decompressing its whole
// block, so on average half a block of work per random access — exactly
// the trade-off RLZ is designed to escape. A block size of zero means one
// document per block (the paper's "0.0MB" rows).
//
// Layout of the body and maps, which internal/container frames as
// container.Block (header: magic, version; footer: map offset, end magic):
//
//	body  algorithm byte (a codec registry ID),
//	      compressed blocks, concatenated
//	maps  block map (extents of blocks), then per-document locators
//	      (block index delta, offset in block, length)
package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"rlz/internal/codec"
	"rlz/internal/coding"
	"rlz/internal/container"
	"rlz/internal/docmap"
	"rlz/internal/lz77"
	"rlz/internal/pipeline"
)

// Algorithm selects the per-block compressor; its byte value is the
// codec registry ID recorded in the archive header (internal/codec), so
// readers auto-detect whichever codec built an archive.
type Algorithm byte

const (
	// Zlib compresses blocks as zlib streams at best compression — the
	// paper's zlib baseline — on internal/codec's deflater, whose bytes
	// are compress/zlib's at BestCompression.
	Zlib Algorithm = 'z'
	// LZ77 compresses blocks with the large-window coder from
	// internal/lz77 — the paper's lzma baseline.
	LZ77 Algorithm = 'l'
	// Flate compresses blocks with deflate at BestSpeed (zlib framing,
	// so blocks stay checksummed) — the mid ladder point: near zlib's
	// ratio at a fraction of the encode cost and a faster decode.
	Flate Algorithm = 'f'
	// LZR compresses blocks with the no-entropy-stage LZ variant
	// (lz77.CompressRaw): byte-aligned tokens, no Huffman tables, the
	// fastest decode in the ladder at the weakest ratio.
	LZR Algorithm = 'r'
)

// String names the algorithm as the paper's tables do.
func (a Algorithm) String() string {
	switch a {
	case LZ77:
		return "lzma*" // the lzma-substitute; see "Block codecs" in the README
	default:
		if c, ok := codec.ByID(byte(a)); ok {
			return c.Name()
		}
		return fmt.Sprintf("Algorithm(%d)", byte(a))
	}
}

const (
	version    = 1
	blockStart = container.HeaderSize + 1 // after the algorithm byte
)

// ErrCorruptArchive is returned when a blockstore fails structural checks.
var ErrCorruptArchive = container.ErrCorrupt

// MaxBlockUncompressed is the largest uncompressed block size Open
// accepts from an archive's document locators — the hard ceiling on
// what one block decode may be asked to materialize. The locators are
// part of the (potentially hostile) archive, so without an absolute
// bound a crafted file could declare a near-2^33 block and make the read
// path allocate it; 1 GiB is orders of magnitude above any honest
// configuration (default blocks are 256 KiB; a block exceeds this only
// if one document does).
const MaxBlockUncompressed = 1 << 30

// Options configures a Writer.
type Options struct {
	// BlockSize is the uncompressed block capacity in bytes. Zero means
	// one document per block.
	BlockSize int
	// Algorithm selects the block compressor; the zero value means Zlib.
	// NewWriter rejects unregistered algorithms up front.
	Algorithm Algorithm
	// LZ77 tunes the LZ77-based codecs (LZ77, LZR); ignored otherwise.
	LZ77 lz77.Options
	// Workers sets the number of concurrent block compressors; values
	// below 2 compress synchronously. Blocks are committed in order, so
	// the archive bytes are identical at any worker count.
	Workers int
}

func (o Options) algorithm() Algorithm {
	if o.Algorithm == 0 {
		return Zlib
	}
	return o.Algorithm
}

// Codec resolves the options' compressor against the codec registry,
// configured with the options' LZ77 tuning where it applies. The error
// names every registered codec — the fail-fast path of rlz build -alg.
func (o Options) Codec() (codec.Codec, error) {
	switch alg := o.algorithm(); alg {
	case LZ77:
		return codec.LZMA(o.LZ77), nil
	case LZR:
		return codec.LZR(o.LZ77), nil
	default:
		c, ok := codec.ByID(byte(alg))
		if !ok {
			return nil, fmt.Errorf("blockstore: unknown algorithm %q (want one of %v)", byte(alg), codec.Names())
		}
		return c, nil
	}
}

// docLoc locates a document: which block, where within it, how long.
type docLoc struct {
	block  uint32
	offset uint32
	length uint32
}

// Writer builds a blocked archive.
type Writer struct {
	w         container.Writer
	opt       Options
	codec     codec.Codec
	blocks    *docmap.Map // extents of compressed blocks
	docs      []docLoc
	cur       []byte // current uncompressed block
	numBlocks int    // blocks cut so far (flushed or in flight)
	pipe      *pipeline.Ordered[[]byte, []byte]
	closed    bool
	closeErr  error
}

// NewWriter starts a blocked archive on w. An Options.Algorithm that is
// not in the codec registry fails here — before any bytes are written —
// with an error naming the registered codecs.
func NewWriter(w io.Writer, opt Options) (*Writer, error) {
	cdc, err := opt.Codec()
	if err != nil {
		return nil, err
	}
	bw := &Writer{w: container.Writer{W: w}, opt: opt, codec: cdc, blocks: docmap.New()}
	hdr := append(container.Block.AppendHeader(nil, version), byte(opt.algorithm()))
	if _, err := bw.w.Write(hdr); err != nil {
		return nil, fmt.Errorf("blockstore: writing header: %w", err)
	}
	if opt.Workers > 1 {
		bw.pipe = pipeline.NewOrdered(opt.Workers,
			func(block []byte) ([]byte, error) { return cdc.Compress(nil, block) },
			func(comp []byte) error {
				if _, err := bw.w.Write(comp); err != nil {
					return fmt.Errorf("blockstore: writing block: %w", err)
				}
				bw.blocks.Append(uint64(len(comp)))
				return nil
			})
	}
	return bw, nil
}

// Append adds a document, returning its ID. The document is buffered into
// the current block; full blocks are compressed and written immediately.
func (w *Writer) Append(doc []byte) (int, error) {
	if w.closed {
		return 0, errors.New("blockstore: append to closed writer")
	}
	id := len(w.docs)
	w.docs = append(w.docs, docLoc{
		block:  uint32(w.numBlocks),
		offset: uint32(len(w.cur)),
		length: uint32(len(doc)),
	})
	w.cur = append(w.cur, doc...)
	// A zero block size flushes after every document; otherwise flush
	// once the block has reached capacity, so blocks are at least
	// BlockSize (documents are never split across blocks).
	if w.opt.BlockSize <= 0 || len(w.cur) >= w.opt.BlockSize {
		if err := w.flushBlock(); err != nil {
			return 0, err
		}
	}
	return id, nil
}

func (w *Writer) flushBlock() error {
	if len(w.cur) == 0 {
		return nil
	}
	w.numBlocks++
	if w.pipe != nil {
		block := make([]byte, len(w.cur))
		copy(block, w.cur)
		w.cur = w.cur[:0]
		return w.pipe.Submit(block)
	}
	comp, err := w.codec.Compress(nil, w.cur)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(comp); err != nil {
		return fmt.Errorf("blockstore: writing block: %w", err)
	}
	w.blocks.Append(uint64(len(comp)))
	w.cur = w.cur[:0]
	return nil
}

// NumDocs returns the number of documents appended so far.
func (w *Writer) NumDocs() int { return len(w.docs) }

// Close flushes the final block and writes the maps and footer. It
// always drains the parallel compression pipeline, even after an error,
// so no goroutines outlive the writer; repeated Closes report the same
// error.
func (w *Writer) Close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	err := w.flushBlock()
	if w.pipe != nil {
		if perr := w.pipe.Close(); err == nil {
			err = perr
		}
	}
	if err != nil {
		w.closeErr = err
		return err
	}
	mapOff := w.w.N
	tail := w.blocks.Marshal(nil)
	tail = coding.PutUvarint64(tail, uint64(len(w.docs)))
	prevBlock := uint32(0)
	for _, d := range w.docs {
		tail = coding.PutUvarint32(tail, d.block-prevBlock)
		prevBlock = d.block
		tail = coding.PutUvarint32(tail, d.offset)
		tail = coding.PutUvarint32(tail, d.length)
	}
	tail = container.Block.AppendFooter(tail, mapOff)
	if _, err := w.w.Write(tail); err != nil {
		w.closeErr = fmt.Errorf("blockstore: writing footer: %w", err)
		return w.closeErr
	}
	return nil
}

// Reader provides random access to a blocked archive. Every Get reads and
// decompresses the target document's entire block — the baseline cost
// model the paper measures. GetBatch amortizes it: documents sharing a
// block are served from one decode.
//
// Concurrency: all Reader methods are safe for concurrent use by multiple
// goroutines, provided each call passes a distinct dst buffer. The Reader
// itself holds no mutable per-call state (decoder state and block buffers
// are drawn from internal pools, the maps are immutable after Open, and
// the underlying io.ReaderAt is accessed only through ReadAt).
type Reader struct {
	r        io.ReaderAt
	alg      Algorithm
	decoders *codec.Pool // nil only when constructed unsafely; reads fail loudly
	blocks   *docmap.Map
	docs     []docLoc
	blockRaw []int64 // per-block exact uncompressed size, from the locators
	size     int64
	bufs     sync.Pool // *[]byte scratch: compressed reads and decoded blocks
}

// Open reads a blocked archive's maps from r, which must cover size bytes.
func Open(r io.ReaderAt, size int64) (*Reader, error) {
	_, mapOff, tail, err := container.Block.Open(r, size)
	if err != nil {
		return nil, err
	}
	var algByte [1]byte
	if _, err := r.ReadAt(algByte[:], container.HeaderSize); err != nil {
		return nil, fmt.Errorf("blockstore: reading header: %w", err)
	}
	alg := Algorithm(algByte[0])
	cdc, ok := codec.ByID(algByte[0])
	if !ok {
		return nil, fmt.Errorf("%w: unknown algorithm %q (known: %v)", ErrCorruptArchive, algByte[0], codec.Names())
	}

	blocks, used, err := docmap.Unmarshal(tail)
	if err != nil {
		return nil, fmt.Errorf("%w: block map: %v", ErrCorruptArchive, err)
	}
	tail = tail[used:]
	numDocs, used, err := coding.Uvarint64(tail)
	if err != nil {
		return nil, fmt.Errorf("%w: document count: %v", ErrCorruptArchive, err)
	}
	tail = tail[used:]
	if numDocs > uint64(len(tail)) {
		return nil, fmt.Errorf("%w: implausible document count %d", ErrCorruptArchive, numDocs)
	}
	docs := make([]docLoc, numDocs)
	prevBlock := uint32(0)
	for i := range docs {
		var vals [3]uint32
		for j := range vals {
			v, n, err := coding.Uvarint32(tail)
			if err != nil {
				return nil, fmt.Errorf("%w: document locator %d: %v", ErrCorruptArchive, i, err)
			}
			vals[j] = v
			tail = tail[n:]
		}
		prevBlock += vals[0]
		docs[i] = docLoc{block: prevBlock, offset: vals[1], length: vals[2]}
		if int(prevBlock) >= blocks.Len() {
			return nil, fmt.Errorf("%w: document %d in block %d of %d", ErrCorruptArchive, i, prevBlock, blocks.Len())
		}
	}
	if mapOff < blockStart || int64(blocks.Total()) != mapOff-blockStart {
		return nil, fmt.Errorf("%w: block map covers %d bytes, region is %d", ErrCorruptArchive, blocks.Total(), mapOff-blockStart)
	}
	// Derive each block's uncompressed size from its locators: documents
	// are laid back to back from offset 0, so the block is exactly as
	// long as its last document's end. This is the decode budget every
	// block decompression enforces — a hostile archive cannot claim a
	// tiny block and then inflate without bound.
	blockRaw := make([]int64, blocks.Len())
	for i, d := range docs {
		end := int64(d.offset) + int64(d.length)
		if end > MaxBlockUncompressed {
			return nil, fmt.Errorf("%w: document %d extends its block to %d bytes (limit %d)", ErrCorruptArchive, i, end, int64(MaxBlockUncompressed))
		}
		if end > blockRaw[d.block] {
			blockRaw[d.block] = end
		}
	}
	return &Reader{
		r: r, alg: alg, decoders: codec.NewPool(cdc),
		blocks: blocks, docs: docs, blockRaw: blockRaw, size: size,
	}, nil
}

// OpenBytes opens an archive held in memory.
func OpenBytes(data []byte) (*Reader, error) {
	return Open(bytes.NewReader(data), int64(len(data)))
}

// NumDocs returns the number of documents in the archive.
func (r *Reader) NumDocs() int { return len(r.docs) }

// Algorithm returns the block compressor used by the archive.
func (r *Reader) Algorithm() Algorithm { return r.alg }

// NumBlocks returns the number of compressed blocks in the archive.
func (r *Reader) NumBlocks() int { return r.blocks.Len() }

// Size returns the total archive size in bytes.
func (r *Reader) Size() int64 { return r.size }

// Extent returns the absolute extent of the *block* containing document
// id — the bytes a Get must physically read.
func (r *Reader) Extent(id int) (off, n int64, err error) {
	if id < 0 || id >= len(r.docs) {
		return 0, 0, fmt.Errorf("%w: document %d of %d", docmap.ErrNoSuchDoc, id, len(r.docs))
	}
	o, l, err := r.blocks.Extent(int(r.docs[id].block))
	if err != nil {
		return 0, 0, err
	}
	return blockStart + int64(o), int64(l), nil
}

// getBuf draws a scratch buffer from the reader's pool; the caller owns
// it and must hand it back with r.bufs.Put.
func (r *Reader) getBuf() *[]byte {
	if b, ok := r.bufs.Get().(*[]byte); ok {
		return b
	}
	b := make([]byte, 0, 4096)
	return &b
}

// decodeBlock returns block bi decompressed into a pooled buffer that
// release returns — callers must copy what outlives the call, and must
// not call release twice.
func (r *Reader) decodeBlock(bi uint32) (block []byte, release func(), err error) {
	noop := func() {}
	o, l, err := r.blocks.Extent(int(bi))
	if err != nil {
		return nil, noop, err
	}
	// Memory-mapped archives hand the compressed bytes over as a slice of
	// the mapping — no read syscall, no staging copy; otherwise stage
	// them through a pooled buffer.
	var (
		comp []byte
		cb   *[]byte
	)
	if sl, ok := r.r.(container.Slicer); ok {
		comp, err = sl.Slice(blockStart+int64(o), int64(l))
		if err != nil {
			return nil, noop, fmt.Errorf("blockstore: reading block %d: %w", bi, err)
		}
	} else {
		cb = r.getBuf()
		comp = append((*cb)[:0], make([]byte, int(l))...)
		if _, err := r.r.ReadAt(comp, blockStart+int64(o)); err != nil {
			*cb = comp
			r.bufs.Put(cb)
			return nil, noop, fmt.Errorf("blockstore: reading block %d: %w", bi, err)
		}
	}
	putComp := func() {
		if cb != nil {
			*cb = comp
			r.bufs.Put(cb)
		}
	}
	if r.decoders == nil {
		// Open validates the algorithm byte, but a Reader constructed any
		// other way must fail loudly here rather than fall through and
		// report a misleading out-of-extent corruption.
		putComp()
		return nil, noop, fmt.Errorf("%w: unknown compression algorithm %q for block %d", ErrCorruptArchive, byte(r.alg), bi)
	}
	rb := r.getBuf()
	dec := r.decoders.Get()
	out, derr := dec.Decode((*rb)[:0], comp, int(r.blockRaw[bi]))
	r.decoders.Put(dec)
	putComp()
	if derr != nil {
		*rb = out
		r.bufs.Put(rb)
		return nil, noop, fmt.Errorf("%w: block %d: %v", ErrCorruptArchive, bi, derr)
	}
	return out, func() { *rb = out; r.bufs.Put(rb) }, nil
}

// docFromBlock slices document id out of its decoded block.
func (r *Reader) docFromBlock(block []byte, id int) ([]byte, error) {
	loc := r.docs[id]
	end := int(loc.offset) + int(loc.length)
	if end > len(block) {
		return nil, fmt.Errorf("%w: document %d extent [%d,%d) outside block of %d", ErrCorruptArchive, id, loc.offset, end, len(block))
	}
	return block[loc.offset:end], nil
}

// GetAppend retrieves document id, appending its text to dst. The whole
// containing block is read and decompressed into a pooled buffer (no
// caching: each request pays the full baseline cost, as in the paper's
// evaluation where OS caches are dropped between runs; a serving cache
// is internal/serve's), but steady-state decodes allocate nothing —
// decoder state, compressed reads and block buffers are all pooled.
func (r *Reader) GetAppend(dst []byte, id int) ([]byte, error) {
	if id < 0 || id >= len(r.docs) {
		return dst, fmt.Errorf("%w: document %d of %d", docmap.ErrNoSuchDoc, id, len(r.docs))
	}
	block, release, err := r.decodeBlock(r.docs[id].block)
	if err != nil {
		return dst, err
	}
	doc, err := r.docFromBlock(block, id)
	if err != nil {
		release()
		return dst, err
	}
	dst = append(dst, doc...)
	release()
	return dst, nil
}

// Get retrieves document id.
func (r *Reader) Get(id int) ([]byte, error) {
	return r.GetAppend(nil, id)
}

// GetBatch retrieves every id, decoding each distinct containing block
// exactly once — documents sharing a block share one decompression, the
// amortization a sequential per-document loop forfeits. With workers > 1
// the distinct blocks are decoded concurrently on a bounded pool
// (internal/pipeline) while visit is called from a single goroutine.
//
// visit is called exactly once per index i of ids, in ascending block
// order (NOT ids order); doc is pooled storage valid only during the
// call — append it to keep it. GetBatch is safe for concurrent use like
// every other Reader method.
func (r *Reader) GetBatch(ids []int, workers int, visit func(i int, doc []byte, err error)) {
	if len(ids) == 0 {
		return
	}
	// Group indices by containing block: order[] holds ids' indices
	// sorted by (block, offset); out-of-range ids go first and are
	// reported without any decode.
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	key := func(i int) int64 {
		id := ids[i]
		if id < 0 || id >= len(r.docs) {
			return -1
		}
		return int64(r.docs[id].block)<<32 | int64(r.docs[id].offset)
	}
	sort.Slice(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })

	at := 0
	for at < len(order) && key(order[at]) < 0 {
		i := order[at]
		visit(i, nil, fmt.Errorf("%w: document %d of %d", docmap.ErrNoSuchDoc, ids[i], len(r.docs)))
		at++
	}
	// runs[k] is the half-open range of order[] whose ids live in block
	// blockOf[k].
	type run struct {
		bi       uint32
		from, to int
	}
	var runs []run
	for i := at; i < len(order); {
		bi := r.docs[ids[order[i]]].block
		j := i
		for j < len(order) && r.docs[ids[order[j]]].block == bi {
			j++
		}
		runs = append(runs, run{bi: bi, from: i, to: j})
		i = j
	}
	serve := func(rn run, block []byte) {
		for _, i := range order[rn.from:rn.to] {
			doc, err := r.docFromBlock(block, ids[i])
			visit(i, doc, err)
		}
	}
	if workers <= 1 || len(runs) == 1 {
		for _, rn := range runs {
			block, release, err := r.decodeBlock(rn.bi)
			if err != nil {
				for _, i := range order[rn.from:rn.to] {
					visit(i, nil, err)
				}
				continue
			}
			serve(rn, block)
			release()
		}
		return
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	type decoded struct {
		rn      run
		block   []byte
		release func()
		err     error
	}
	// Ordered fan-out: blocks decode concurrently, visit commits from the
	// pipeline's single committer goroutine (GetBatch blocks until every
	// commit ran, so the visit-from-one-goroutine contract holds).
	pipe := pipeline.NewOrdered(workers,
		func(rn run) (decoded, error) {
			block, release, err := r.decodeBlock(rn.bi)
			return decoded{rn: rn, block: block, release: release, err: err}, nil
		},
		func(d decoded) error {
			if d.err != nil {
				for _, i := range order[d.rn.from:d.rn.to] {
					visit(i, nil, d.err)
				}
				return nil
			}
			serve(d.rn, d.block)
			d.release()
			return nil
		})
	for _, rn := range runs {
		if pipe.Submit(rn) != nil {
			break
		}
	}
	_ = pipe.Close()
}

// Close is a no-op: the Reader never owns what it reads from (whoever
// opened the file or mapping — archive.Open — closes it).
func (r *Reader) Close() error { return nil }

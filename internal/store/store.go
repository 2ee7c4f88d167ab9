// Package store implements the on-disk RLZ archive: the format
// that ties together the dictionary, the per-document factor encodings and
// the document map (§3.1 of the paper).
//
// Layout of the body and maps, which internal/container frames as
// container.RLZ (header: magic, version; footer: map offset, end magic):
//
//	body  position coding, length coding (1 byte each),
//	      vbyte dictionary length, dictionary bytes,
//	      per-document factor records (PairCodec framing), concatenated
//	maps  delta-vbyte document map
//
// A Reader keeps the dictionary resident in memory (the property RLZ's
// random-access speed rests on) and reads only the requested document's
// record from the payload region, so a Get touches O(record) bytes of
// storage regardless of collection size.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"rlz/internal/coding"
	"rlz/internal/container"
	"rlz/internal/docmap"
	"rlz/internal/rlz"
)

// The header's version is 2 for a P segment and 1 for every other; a
// Reader takes both. A version 2 segment may hold P records in repeats
// form, which a reader of version 1 alone would fail on at every read,
// so it refuses the segment at open instead.
const (
	version  = 1
	versionP = 2
)

// ErrCorruptArchive is returned when an archive fails structural checks.
var ErrCorruptArchive = container.ErrCorrupt

// Writer builds an RLZ archive by factorizing appended documents against a
// fixed dictionary. It must be closed to produce a readable archive.
type Writer struct {
	w       container.Writer
	dict    *rlz.Dictionary
	codec   rlz.PairCodec
	fz      *rlz.Factorizer // lazy: prefactored writers never factorize
	m       *docmap.Map
	heat    *rlz.RegionHeat
	factors []rlz.Factor // reused across Appends
	scratch []byte
	closed  bool
}

// NewWriter starts an archive on w using the given dictionary text and
// pair codec. The dictionary's suffix array is built here (O(m) time,
// O(m) extra memory), after which each Append runs in O(doc log m).
func NewWriter(w io.Writer, dictData []byte, codec rlz.PairCodec) (*Writer, error) {
	dict, err := rlz.NewDictionary(dictData)
	if err != nil {
		return nil, err
	}
	return newWriter(w, dict, dictData, codec)
}

// NewWriterPrefactored starts an archive whose documents will be supplied
// as ready-made factorizations via AppendFactors, skipping suffix-array
// construction. This lets one factorization pass feed several archives
// with different pair codecs (as the experiment harness does for the
// paper's ZZ/ZV/UZ/UV grid).
func NewWriterPrefactored(w io.Writer, dictData []byte, codec rlz.PairCodec) (*Writer, error) {
	dict, err := rlz.NewDictionaryForDecode(dictData)
	if err != nil {
		return nil, err
	}
	return newWriter(w, dict, dictData, codec)
}

// NewWriterFromDictionary starts an archive on w reusing an
// already-indexed dictionary, whose text is written into the header
// like any other writer's. N writers sharing one Dictionary pay its
// O(m) suffix-array construction once instead of N times — the sharded
// build path, where every shard embeds the same global dictionary.
// Factorize is safe for concurrent use, so the writers may run on
// separate goroutines.
func NewWriterFromDictionary(w io.Writer, dict *rlz.Dictionary, codec rlz.PairCodec) (*Writer, error) {
	return newWriter(w, dict, dict.Bytes(), codec)
}

func newWriter(w io.Writer, dict *rlz.Dictionary, dictData []byte, codec rlz.PairCodec) (*Writer, error) {
	sw := &Writer{
		w:     container.Writer{W: w},
		dict:  dict,
		codec: codec,
		m:     docmap.New(),
	}
	v := byte(version)
	if codec.Pos == rlz.PosP {
		v = versionP
	}
	hdr := container.RLZ.AppendHeader(nil, v)
	hdr = append(hdr, byte(codec.Pos), byte(codec.Len))
	hdr = coding.PutUvarint64(hdr, uint64(len(dictData)))
	hdr = append(hdr, dictData...)
	if _, err := sw.w.Write(hdr); err != nil {
		return nil, fmt.Errorf("store: writing header: %w", err)
	}
	return sw, nil
}

// CollectHeat attaches a dictionary-usage accumulator that will observe
// every factorization performed by subsequent Appends — the signal
// adaptive re-sampling ranks hot/cold dictionary regions by. Pass nil to
// detach. Documents committed via AppendEncoded are not observed here;
// parallel build pipelines feed the accumulator from their workers
// instead (archive.Options.Heat).
func (w *Writer) CollectHeat(h *rlz.RegionHeat) { w.heat = h }

// Dictionary returns the writer's dictionary (e.g. to share with other
// writers or to inspect).
func (w *Writer) Dictionary() *rlz.Dictionary { return w.dict }

// Codec returns the writer's pair codec, so external build pipelines can
// encode records off-thread and commit them with AppendEncoded.
func (w *Writer) Codec() rlz.PairCodec { return w.codec }

// Append factorizes doc and writes its record, returning the document ID.
func (w *Writer) Append(doc []byte) (int, error) {
	if w.closed {
		return 0, errors.New("store: append to closed writer")
	}
	if w.fz == nil {
		// Lazy: a prefactored or encoded-record writer never factorizes,
		// so the engine (and a decode-only dictionary's suffix array) is
		// only built when a document actually needs it.
		w.fz = rlz.NewFactorizer(w.dict, rlz.FactorizerOptions{})
	}
	w.factors = w.fz.Factorize(doc, w.factors[:0])
	return w.appendFactors(w.factors)
}

// AppendFactors writes a document supplied as a ready-made factorization
// against this archive's dictionary, returning the document ID. The
// caller is responsible for the factors referencing this dictionary;
// readers validate factor bounds at decode time.
func (w *Writer) AppendFactors(factors []rlz.Factor) error {
	if w.closed {
		return errors.New("store: append to closed writer")
	}
	_, err := w.appendFactors(factors)
	return err
}

// AppendEncoded commits a document record already encoded with this
// writer's Codec against its Dictionary, returning the document ID. This
// is the ordered-commit half of a parallel build: factorization and pair
// encoding run on worker goroutines, records land here in document order,
// and the resulting archive is byte-for-byte identical to sequential
// Appends.
func (w *Writer) AppendEncoded(rec []byte) (int, error) {
	if w.closed {
		return 0, errors.New("store: append to closed writer")
	}
	if _, err := w.w.Write(rec); err != nil {
		return 0, fmt.Errorf("store: writing document: %w", err)
	}
	return w.m.Append(uint64(len(rec))), nil
}

func (w *Writer) appendFactors(factors []rlz.Factor) (int, error) {
	if w.heat != nil {
		w.heat.Observe(factors)
	}
	w.scratch = w.codec.Encode(w.scratch[:0], factors)
	if _, err := w.w.Write(w.scratch); err != nil {
		return 0, fmt.Errorf("store: writing document: %w", err)
	}
	return w.m.Append(uint64(len(w.scratch))), nil
}

// NumDocs returns the number of documents appended so far.
func (w *Writer) NumDocs() int { return w.m.Len() }

// Close writes the document map and footer. The underlying io.Writer is
// not closed (the caller owns it).
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	tail := container.RLZ.AppendFooter(w.m.Marshal(nil), w.w.N)
	if _, err := w.w.Write(tail); err != nil {
		return fmt.Errorf("store: writing footer: %w", err)
	}
	return nil
}

// Reader provides random access to an RLZ archive. The dictionary text is
// held in memory; document records are read on demand.
//
// Concurrency: all Reader methods, including FindAll and GetRange, are
// safe for concurrent use by multiple goroutines as long as each call
// passes a distinct destination buffer. Per-call decode state is drawn
// from pools for the length of the call — the record buffer from this
// package's, the zlib inflater and the record's decoded streams from
// internal/rlz's — so a warm Reader allocates nothing per Get beyond what
// dst needs to grow. The document map and dictionary text are immutable
// after Open, and the dictionary's lazily built suffix array is guarded
// by a sync.Once.
type Reader struct {
	r            io.ReaderAt
	view         container.Slicer // r's zero-copy capability, nil when it has none
	dict         *rlz.Dictionary
	codec        rlz.PairCodec
	m            *docmap.Map
	payloadStart int64
	size         int64
	closer       io.Closer
}

// Open reads an archive's header, dictionary and document map from r,
// which must cover size bytes.
func Open(r io.ReaderAt, size int64) (*Reader, error) {
	_, mapOff, mapBytes, err := container.RLZ.Open(r, size)
	if err != nil {
		return nil, err
	}

	// Codec and dictionary. The frame leaves at least a footer's bytes
	// after the header, room for the codec and a whole vbyte.
	var hdrProbe [2 + coding.MaxVByteLen64]byte
	if _, err := r.ReadAt(hdrProbe[:], container.HeaderSize); err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	codec, err := rlz.CodecByName(string(hdrProbe[:2]))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptArchive, err)
	}
	dictLen64, k, err := coding.Uvarint64(hdrProbe[2:])
	if err != nil {
		return nil, fmt.Errorf("%w: dictionary length: %v", ErrCorruptArchive, err)
	}
	dictStart := int64(container.HeaderSize + 2 + k)
	dictLen := int64(dictLen64)
	if dictLen <= 0 || dictStart+dictLen > mapOff {
		return nil, fmt.Errorf("%w: dictionary extent [%d,%d) outside payload", ErrCorruptArchive, dictStart, dictStart+dictLen)
	}
	dictData := make([]byte, dictLen)
	if _, err := r.ReadAt(dictData, dictStart); err != nil {
		return nil, fmt.Errorf("store: reading dictionary: %w", err)
	}
	// Decoding never needs the suffix array, so the Reader uses a
	// decode-only dictionary and Opens in O(dictionary) time.
	dict, err := rlz.NewDictionaryForDecode(dictData)
	if err != nil {
		return nil, err
	}

	m, _, err := docmap.Unmarshal(mapBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptArchive, err)
	}
	payloadStart := dictStart + dictLen
	if int64(m.Total()) != mapOff-payloadStart {
		return nil, fmt.Errorf("%w: docmap covers %d bytes, payload is %d", ErrCorruptArchive, m.Total(), mapOff-payloadStart)
	}
	view, _ := r.(container.Slicer)
	return &Reader{
		r:            r,
		view:         view,
		dict:         dict,
		codec:        codec,
		m:            m,
		payloadStart: payloadStart,
		size:         size,
	}, nil
}

// OpenBytes opens an archive held in memory.
func OpenBytes(data []byte) (*Reader, error) {
	return Open(bytes.NewReader(data), int64(len(data)))
}

// OpenFile opens an archive file. Close the Reader to release the file.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	rd, err := Open(f, st.Size())
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	rd.closer = f
	return rd, nil
}

// NumDocs returns the number of documents in the archive.
func (r *Reader) NumDocs() int { return r.m.Len() }

// Codec returns the archive's pair codec.
func (r *Reader) Codec() rlz.PairCodec { return r.codec }

// DictLen returns the dictionary size in bytes.
func (r *Reader) DictLen() int { return r.dict.Len() }

// Size returns the total archive size in bytes.
func (r *Reader) Size() int64 { return r.size }

// Extent returns the absolute archive extent occupied by document id's
// record — the bytes a Get physically touches, which is what the disk
// model charges for.
func (r *Reader) Extent(id int) (off, n int64, err error) {
	o, l, err := r.m.Extent(id)
	if err != nil {
		return 0, 0, err
	}
	return r.payloadStart + int64(o), int64(l), nil
}

// recPool holds the buffers records are staged in when the backing store
// can only ReadAt. A buffer from get goes back through put on every path
// and is not used after.
type recPool struct{ p sync.Pool }

var recBufs recPool

func (p *recPool) get() *[]byte {
	if b, ok := p.p.Get().(*[]byte); ok {
		return b
	}
	return new([]byte)
}

func (p *recPool) put(b *[]byte) { p.p.Put(b) }

// decodeRange appends bytes [from, to) of document id to dst. The record
// is a view of the mapping when the backing store has one (no syscall, no
// copy), else a pooled buffer filled by ReadAt; either way it is decoded
// straight into dst on internal/rlz's pooled state. On error dst is
// returned as it came.
func (r *Reader) decodeRange(dst []byte, id, from, to int) ([]byte, error) {
	off, n, err := r.Extent(id)
	if err != nil {
		return dst, err
	}
	var out []byte
	if r.view != nil {
		rec, verr := r.view.Slice(off, n)
		if verr != nil {
			return dst, fmt.Errorf("store: reading document %d: %w", id, verr)
		}
		out, err = r.decodeRecord(dst, rec, from, to)
	} else {
		bp := recBufs.get()
		rec := slices.Grow((*bp)[:0], int(n))[:n]
		*bp = rec
		if _, err = r.r.ReadAt(rec, off); err == nil {
			out, err = r.decodeRecord(dst, rec, from, to)
		}
		recBufs.put(bp)
	}
	if err != nil {
		return dst, fmt.Errorf("store: document %d: %w", id, err)
	}
	return out, nil
}

// decodeRecord decodes one record; a range covering any document takes
// the fused whole-document path.
func (r *Reader) decodeRecord(dst, rec []byte, from, to int) (out []byte, err error) {
	if from <= 0 && to == math.MaxInt {
		out, _, err = r.dict.DecodeRecord(dst, r.codec, rec)
	} else {
		out, _, err = r.dict.DecodeRecordRange(dst, r.codec, rec, from, to)
	}
	return out, err
}

// GetAppend retrieves document id, appending its text to dst. Pass the
// same buffer across calls and a warm Reader allocates nothing (see
// decodeRange).
func (r *Reader) GetAppend(dst []byte, id int) ([]byte, error) {
	return r.decodeRange(dst, id, 0, math.MaxInt)
}

// Get retrieves document id.
func (r *Reader) Get(id int) ([]byte, error) {
	return r.GetAppend(nil, id)
}

// GetRange retrieves bytes [from, to) of document id without decoding the
// rest of the document (see rlz.Dictionary.DecodeRecordRange). Requests
// beyond the document's extent are clamped.
func (r *Reader) GetRange(id, from, to int) ([]byte, error) {
	return r.decodeRange(nil, id, from, to)
}

// Close releases the underlying file if the Reader owns one.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

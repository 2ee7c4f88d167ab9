package coding

// BitWriter accumulates bits most-significant-first into a byte slice.
// The zero value is ready to use. Call Flush (or Bytes, which flushes) to
// pad the final partial byte with zeros.
type BitWriter struct {
	buf  []byte
	cur  uint64 // pending bits, left-aligned within the low `n` bits
	n    uint   // number of pending bits in cur (< 8 after a flushCur)
	done bool
}

// NewBitWriter returns a BitWriter that appends to buf.
func NewBitWriter(buf []byte) *BitWriter {
	return &BitWriter{buf: buf}
}

// WriteBits writes the low width bits of v, most significant bit first.
// width must be in [0, 57]; larger fields should be split by the caller.
func (w *BitWriter) WriteBits(v uint64, width uint) {
	if width == 0 {
		return
	}
	w.cur = w.cur<<width | (v & (1<<width - 1))
	w.n += width
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.cur>>w.n))
	}
}

// Flush pads any partial byte with zero bits and appends it.
func (w *BitWriter) Flush() {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.n)))
		w.cur, w.n = 0, 0
	}
}

// Bytes flushes and returns the accumulated bytes.
func (w *BitWriter) Bytes() []byte {
	w.Flush()
	return w.buf
}

// BitReader consumes bits most-significant-first from a byte slice.
type BitReader struct {
	src []byte
	pos int    // next byte index
	cur uint64 // buffered bits, right-aligned
	n   uint   // number of valid bits in cur
}

// NewBitReader returns a BitReader over src.
func NewBitReader(src []byte) *BitReader {
	return &BitReader{src: src}
}

// ReadBits reads width bits (MSB first). width must be in [0, 57].
// Reading past the end of the source returns ErrShortBuffer.
func (r *BitReader) ReadBits(width uint) (uint64, error) {
	for r.n < width {
		if r.pos >= len(r.src) {
			return 0, ErrShortBuffer
		}
		r.cur = r.cur<<8 | uint64(r.src[r.pos])
		r.pos++
		r.n += 8
	}
	r.n -= width
	v := r.cur >> r.n & (1<<width - 1)
	return v, nil
}

// Peek returns up to width bits without consuming them, left-padding with
// zeros if fewer bits remain. It also reports how many real bits were
// available. This is what a table-driven Huffman decoder needs at the tail
// of the stream.
func (r *BitReader) Peek(width uint) (v uint64, avail uint) {
	for r.n < width && r.pos < len(r.src) {
		r.cur = r.cur<<8 | uint64(r.src[r.pos])
		r.pos++
		r.n += 8
	}
	avail = r.n
	if avail >= width {
		return r.cur >> (r.n - width) & (1<<width - 1), width
	}
	// Not enough bits: left-align what we have into a width-bit field.
	return r.cur << (width - r.n) & (1<<width - 1), avail
}

// Skip consumes width bits that were previously Peeked. Skipping more bits
// than are buffered returns ErrShortBuffer.
func (r *BitReader) Skip(width uint) error {
	if r.n < width {
		return ErrShortBuffer
	}
	r.n -= width
	return nil
}

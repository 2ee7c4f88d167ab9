package rlz

// DecodeRange appends the byte range [from, to) of the document encoded
// by factors to dst, without materializing the rest of the document.
// Because factors carry explicit lengths, the decoder can skip whole
// factors in O(1) each until the range starts — the capability behind
// query-biased snippet extraction, where only a small window of a large
// document is needed.
//
// Out-of-range requests are clamped to the document's extent; a reversed
// range yields no output.
func (d *Dictionary) DecodeRange(dst []byte, factors []Factor, from, to int) ([]byte, error) {
	sc := scratch.get()
	dst, err := d.appendRange(dst, sc.stage(factors), from, to)
	scratch.put(sc)
	return dst, err
}

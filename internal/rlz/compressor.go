package rlz

// Compressor bundles a dictionary with a pair codec into a one-call
// document compressor — the byte-level convenience API for callers that
// manage their own storage and only want RLZ's encoding. For whole
// collections with random access, use the store package instead.
//
// A Compressor is safe for concurrent Decompress calls; Compress reuses
// an internal factor buffer and therefore needs one Compressor per
// compressing goroutine (or use Dictionary.Factorize directly).
type Compressor struct {
	dict    *Dictionary
	fz      *Factorizer
	codec   PairCodec
	factors []Factor
}

// NewCompressor creates a Compressor over dictData with the given codec.
// The dictionary's suffix array is built eagerly.
func NewCompressor(dictData []byte, codec PairCodec) (*Compressor, error) {
	dict, err := NewDictionary(dictData)
	if err != nil {
		return nil, err
	}
	return &Compressor{dict: dict, fz: NewFactorizer(dict, FactorizerOptions{}), codec: codec}, nil
}

// NewCompressorFromDictionary shares an existing dictionary, avoiding a
// second suffix-array build; the usual way to create one Compressor per
// worker goroutine. Each Compressor carries its own Factorizer, but the
// dictionary's k-gram ladder is shared, so N workers pay its construction
// once.
func NewCompressorFromDictionary(dict *Dictionary, codec PairCodec) *Compressor {
	return &Compressor{dict: dict, fz: NewFactorizer(dict, FactorizerOptions{}), codec: codec}
}

// Dictionary returns the underlying dictionary.
func (c *Compressor) Dictionary() *Dictionary { return c.dict }

// Codec returns the pair codec in use.
func (c *Compressor) Codec() PairCodec { return c.codec }

// Compress appends the encoded form of doc to dst. The output is one
// self-delimiting record (the same framing the store's payload uses).
func (c *Compressor) Compress(dst, doc []byte) []byte {
	c.factors = c.fz.Factorize(doc, c.factors[:0])
	return c.codec.Encode(dst, c.factors)
}

// Decompress appends the document encoded in the record at the front of
// src to dst, returning the output and the number of record bytes
// consumed — records concatenate, so callers can walk a stream.
func (c *Compressor) Decompress(dst, src []byte) ([]byte, int, error) {
	return c.dict.DecodeRecord(dst, c.codec, src)
}

// DecompressRange appends bytes [from, to) of the record's document.
func (c *Compressor) DecompressRange(dst, src []byte, from, to int) ([]byte, int, error) {
	return c.dict.DecodeRecordRange(dst, c.codec, src, from, to)
}

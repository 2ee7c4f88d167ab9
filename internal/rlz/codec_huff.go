package rlz

import (
	"fmt"

	"rlz/internal/coding"
	"rlz/internal/huffman"
)

// Huffman length coding ("H"): a semi-static per-document code over
// logarithmic length slots, with the slot's residual written as raw bits.
// It sits between V (no model, byte floor per value) and Z (full zlib
// model, highest decode cost): cheaper to decode than zlib, denser than
// vbyte once a document has enough factors to amortize its code table.
// This rounds out the position–length tradeoff curve the paper's §6 asks
// about alongside the Simple9 coding.

const lenSlots = 33 // slot(v) for v up to 2^31, plus slot 0

// slotOf returns the logarithmic bucket of v: 0 for 0, else bit length.
func slotOf(v uint32) uint {
	s := uint(0)
	for v > 0 {
		v >>= 1
		s++
	}
	return s
}

func encodeLensHuffman(dst []byte, factors []Factor) []byte {
	freqs := make([]int, lenSlots)
	for _, f := range factors {
		freqs[slotOf(f.Len)]++
	}
	codec, err := huffman.Build(freqs)
	if err != nil {
		panic("rlz: internal: " + err.Error()) // frequencies are well-formed
	}
	// Code-length table, zero-run compressed (same scheme as lz77).
	lengths := codec.Lengths()
	for i := 0; i < len(lengths); {
		if lengths[i] != 0 {
			dst = append(dst, lengths[i])
			i++
			continue
		}
		run := 0
		for i+run < len(lengths) && lengths[i+run] == 0 {
			run++
		}
		dst = append(dst, 0)
		dst = coding.PutUvarint32(dst, uint32(run))
		i += run
	}
	w := coding.NewBitWriter(dst)
	for _, f := range factors {
		s := slotOf(f.Len)
		codec.Encode(w, int(s))
		if s >= 1 {
			w.WriteBits(uint64(f.Len)-(1<<(s-1)), s-1)
		}
	}
	return w.Bytes()
}

// huffmanLens recodes an H length stream of k lengths as vbytes in
// sc.lens.
func (sc *decodeScratch) huffmanLens(blob []byte, k int) ([]byte, error) {
	lengths := sc.slots[:]
	clear(lengths)
	pos := 0
	for i := 0; i < lenSlots; {
		if pos >= len(blob) {
			return nil, fmt.Errorf("%w: truncated huffman length table", ErrCorruptEncoding)
		}
		b := blob[pos]
		pos++
		if b != 0 {
			lengths[i] = b
			i++
			continue
		}
		run, n, err := coding.Uvarint32(blob[pos:])
		if err != nil || run == 0 || int(run) > lenSlots-i {
			return nil, fmt.Errorf("%w: huffman length table run", ErrCorruptEncoding)
		}
		pos += n
		i += int(run)
	}
	if err := sc.huff.Reset(lengths); err != nil {
		return nil, fmt.Errorf("%w: huffman length code: %v", ErrCorruptEncoding, err)
	}
	r := coding.NewBitReader(blob[pos:])
	out := sc.lens[:0]
	for i := 0; i < k; i++ {
		s, err := sc.huff.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("%w: huffman length %d: %v", ErrCorruptEncoding, i, err)
		}
		if s == 0 {
			out = append(out, 0)
			continue
		}
		if s >= 32 {
			return nil, fmt.Errorf("%w: huffman length slot %d", ErrCorruptEncoding, s)
		}
		extra, err := r.ReadBits(uint(s) - 1)
		if err != nil {
			return nil, fmt.Errorf("%w: huffman length bits %d: %v", ErrCorruptEncoding, i, err)
		}
		out = coding.PutUvarint32(out, 1<<(s-1)+uint32(extra))
	}
	sc.lens = out
	return out, nil
}

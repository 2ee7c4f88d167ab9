package store

import (
	"bytes"
	"testing"

	"rlz/internal/rlz"
)

// FuzzOpenBytes throws arbitrary bytes at the archive opener and, when an
// archive opens, at every document: no input may cause a panic, and any
// document that decodes must decode deterministically.
func FuzzOpenBytes(f *testing.F) {
	docs := [][]byte{
		[]byte("<html>shared boilerplate one</html>"),
		[]byte("<html>shared boilerplate two</html>"),
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []byte("<html>shared boilerplate </html>"), rlz.CodecZV)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range docs {
		if _, err := w.Append(d); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("RLZA"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenBytes(data)
		if err != nil {
			return
		}
		for id := 0; id < r.NumDocs() && id < 64; id++ {
			a, errA := r.Get(id)
			b, errB := r.Get(id)
			if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
				t.Fatalf("document %d decodes non-deterministically", id)
			}
		}
	})
}

// repeatSeeds returns the factor sequences of rlz's FuzzDecodeRecord
// seeds of the same name, whose PV records take the repeats form: runs
// repeated far back, back to back, and overlapping their own copy
// (d < r).
func repeatSeeds(m uint32) [][]rlz.Factor {
	a, b, c := rlz.Factor{Pos: 0, Len: 7}, rlz.Factor{Pos: m - 5, Len: 5}, rlz.Factor{Pos: 'q'}
	far := []rlz.Factor{a, b, c, {Pos: 9, Len: 2}, {Pos: 20, Len: 12}, a, b, c, {Pos: m - 1, Len: 1}, a, b, c}
	var overlap []rlz.Factor // d = 2, r = 20
	for i := 0; i < 22; i++ {
		overlap = append(overlap, []rlz.Factor{a, c}[i%2])
	}
	return [][]rlz.Factor{far, overlap, append(overlap, far...)}
}

// FuzzCodecDecode exercises every pair codec's decoder on arbitrary
// record bytes, and holds the fused record decoder the read path uses
// (rlz.Dictionary.DecodeRecord) to the layered one it replaced there
// (PairCodec.Decode, then Dictionary.Decode): the same document, or both
// reject.
func FuzzCodecDecode(f *testing.F) {
	dictText := bytes.Repeat([]byte("<html>shared boilerplate </html>"), 8)
	dict, err := rlz.NewDictionaryForDecode(dictText)
	if err != nil {
		f.Fatal(err)
	}
	m := uint32(len(dictText))
	fs := []rlz.Factor{{Pos: 3, Len: 10}, {Pos: 'x', Len: 0}, {Pos: 0, Len: 1}, {Pos: m - 200, Len: 200}}
	pz, ps, ph := rlz.PairCodec{Pos: rlz.PosP, Len: rlz.LenZ}, rlz.PairCodec{Pos: rlz.PosP, Len: rlz.LenS}, rlz.PairCodec{Pos: rlz.PosP, Len: rlz.LenH}
	for _, c := range append(append([]rlz.PairCodec{pz, ps, ph}, rlz.AllCodecs...), rlz.ExtensionCodecs...) {
		rec := c.Encode(nil, fs)
		f.Add(c.String(), rec)
		f.Add(c.String(), rec[:len(rec)-1])
		f.Add(c.String(), append(append([]byte{}, rec...), 0))
		f.Add(c.String(), c.Encode(nil, nil))
		f.Add(c.String(), c.Encode(nil, []rlz.Factor{{Pos: 256, Len: 0}}))       // not a byte
		f.Add(c.String(), c.Encode(nil, []rlz.Factor{{Pos: m - 1, Len: 2}}))     // runs off the end
		f.Add(c.String(), c.Encode(nil, []rlz.Factor{{Pos: m, Len: 1}}))         // starts past it
		f.Add(c.String(), c.Encode(nil, []rlz.Factor{{Pos: 1, Len: 1<<32 - 1}})) // wraps a uint32
		for _, seed := range repeatSeeds(m) {
			f.Add(c.String(), c.Encode(nil, seed))
		}
	}
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		codec, err := rlz.CodecByName(name)
		if err != nil {
			return
		}
		dec, used, decErr := codec.Decode(nil, data)
		doc, err := []byte(nil), decErr
		if err == nil {
			doc, err = dict.Decode(nil, dec)
		}
		fused, fusedUsed, fusedErr := dict.DecodeRecord(nil, codec, data)
		if (fusedErr == nil) != (err == nil) {
			t.Fatalf("fused err = %v, layered err = %v", fusedErr, err)
		}
		if fusedErr != nil && len(fused) != 0 {
			t.Fatalf("rejected record left %d bytes in dst", len(fused))
		}
		if err == nil && (fusedUsed != used || !bytes.Equal(fused, doc)) {
			t.Fatalf("fused decode: %d bytes from %d record bytes; layered: %d from %d", len(fused), fusedUsed, len(doc), used)
		}
		if decErr != nil {
			return
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		// Accepted records must re-encode and re-decode to the same
		// factors (the encoding is canonical for a factor sequence).
		enc := codec.Encode(nil, dec)
		dec2, _, err := codec.Decode(nil, enc)
		if err != nil || len(dec2) != len(dec) {
			t.Fatalf("re-encode failed: %v", err)
		}
		for i := range dec {
			if dec[i] != dec2[i] {
				t.Fatalf("factor %d changed across re-encode", i)
			}
		}
	})
}

package rlz

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// FuzzFactorizeEquivalence holds the fast factorization engine (k-gram
// ladder + boundary skip + inlined interval search), ladder on and off,
// byte-identical to factorizeNoFastPath — the paper's pure binary-search
// factorizer — on arbitrary dictionary/document pairs, and checks the
// factors still round-trip through Decode. Each input also runs against
// the dictionary text repeated eight times: that keeps the distinct grams
// under the ladder's len/4 rule, so every rung a fuzzed dictionary can
// have is built and probed. Any divergence is a correctness bug in the
// engine, not a tuning regression.
func FuzzFactorizeEquivalence(f *testing.F) {
	f.Add([]byte("abaacabbabcc"), []byte("bbaancabb"))
	f.Add([]byte("the quick brown fox"), []byte("the lazy dog jumps the fox"))
	f.Add([]byte("aaaaaaaa"), []byte("aaaaaaaaaaaaaaaaaaaaaaaa"))
	f.Add([]byte{0}, []byte{0, 0, 1, 255})
	f.Add([]byte("ab"), []byte(""))
	f.Add(bytes.Repeat([]byte("ab"), 40), bytes.Repeat([]byte("aab"), 30))
	for _, c := range cornerCases() {
		if len(c.dict) <= 1<<14 { // the target skips larger ones
			f.Add(c.dict, c.doc)
		}
	}
	f.Fuzz(func(t *testing.T, dictData, doc []byte) {
		if len(dictData) == 0 || len(dictData) > 1<<14 || len(doc) > 1<<14 {
			t.Skip()
		}
		for _, data := range [][]byte{dictData, bytes.Repeat(dictData, 8)} {
			d, err := NewDictionary(data)
			if err != nil {
				t.Skip()
			}
			checkEngines(t, fmt.Sprintf("dict %q doc %q", data, doc), d, doc)
		}
	})
}

// refDecodeUV is the byte-at-a-time reference FuzzDecodeRecord holds the
// run-copy kernel to: a UV record parsed and decoded with nothing but
// indexing, sharing no code with the package. ok is false for a record
// that must be rejected.
func refDecodeUV(text, rec []byte) (doc []byte, used int, ok bool) {
	uvarint := func(b []byte) (v uint64, n int, ok bool) {
		for i := 0; i < len(b) && i < 5; i++ {
			v |= uint64(b[i]&0x7f) << (7 * i)
			if b[i] < 0x80 {
				return v, i + 1, v <= math.MaxUint32
			}
		}
		return 0, 0, false
	}
	blob := func(b []byte) (body []byte, n int, ok bool) {
		size, n, ok := uvarint(b)
		if !ok || size > uint64(len(b)-n) {
			return nil, 0, false
		}
		return b[n : n+int(size)], n + int(size), true
	}
	k, used, ok := uvarint(rec)
	if !ok || k > uint64(len(rec))*256 {
		return nil, 0, false
	}
	if k == 0 {
		return nil, used, true
	}
	pos, n, ok := blob(rec[used:])
	if !ok || uint64(len(pos)) != 4*k {
		return nil, 0, false
	}
	used += n
	lens, n, ok := blob(rec[used:])
	if !ok {
		return nil, 0, false
	}
	used += n
	for i := 0; i < int(k); i++ {
		p := uint64(pos[4*i]) | uint64(pos[4*i+1])<<8 | uint64(pos[4*i+2])<<16 | uint64(pos[4*i+3])<<24
		l, n, ok := uvarint(lens)
		if !ok {
			return nil, 0, false
		}
		lens = lens[n:]
		switch {
		case l == 0 && p > 255, l != 0 && p+l > uint64(len(text)):
			return nil, 0, false
		case l == 0:
			doc = append(doc, byte(p))
		}
		for j := uint64(0); j < l; j++ {
			doc = append(doc, text[p+j])
		}
	}
	return doc, used, len(lens) == 0
}

// resealMode is the bit of FuzzDecodeRecord's codec byte that re-seals
// the CRC of a P record before it is decoded.
const resealMode = 0x80

// FuzzDecodeRecord holds the run-copy kernel and everything in front of
// it to two other decoders on arbitrary record bytes, under every codec
// and into destinations with every kind of spare capacity (decodeBoth):
// the fused DecodeRecord against the layered PairCodec.Decode +
// Dictionary.Decode, and both, for UV records, against refDecodeUV, and
// for PV records against refDecodeUV after refPVtoUV. They must yield the
// same bytes and record length, or all reject, with what dst held left in
// place. A range of the same record must come out as that slice of the
// whole.
//
// A P record's CRC rejects nearly every mutation before the checks
// behind it run, so the codec byte's high bit selects a mode that
// re-seals the CRC (resealP) of a P record before it is decoded: the
// mutations then reach the tag, width, length and padding checks.
func FuzzDecodeRecord(f *testing.F) {
	text := []byte("<html><head><title>relative lempel-ziv</title></head><body>factorization of web collections</body></html>\n")
	m := uint32(len(text))
	seeds := [][]Factor{
		nil,                                // the empty record
		{{Pos: 'x'}, {Pos: 0}, {Pos: 255}}, // literals only
		{{Pos: 256}},                       // not a literal
		{{Pos: 0, Len: m}, {Pos: m - 1, Len: 1}, {Pos: m, Len: 1}},
	}
	var tail, sized []Factor
	for s := uint32(1); s < runSlack; s++ { // runs that end on the dictionary's last byte
		tail = append(tail, Factor{Pos: m - s, Len: s})
	}
	for _, l := range []uint32{15, 16, 17, runSlack - 1, runSlack, runSlack + 1} {
		sized = append(sized, Factor{Pos: 0, Len: l}, Factor{Pos: 'l'}, Factor{Pos: m - l, Len: l})
	}
	// Runs that start where exactly runSlack bytes of dictionary are
	// left, and one byte later.
	sized = append(sized, Factor{Pos: m - runSlack, Len: 16}, Factor{Pos: m - runSlack, Len: runSlack},
		Factor{Pos: m - runSlack + 1, Len: 16}, Factor{Pos: m - runSlack + 1, Len: runSlack - 1})
	seeds = append(seeds, tail, sized, append(sized[:len(sized):len(sized)], Factor{Pos: m - 3, Len: 4}))
	for _, fs := range seeds {
		for i, c := range everyCodec {
			f.Add(text, c.Encode(nil, fs), uint8(i), int16(-1), int16(40))
			if c.Pos == PosP {
				f.Add(text, c.Encode(nil, fs), uint8(i)|resealMode, int16(-1), int16(40))
			}
		}
	}
	f.Fuzz(func(t *testing.T, dictData, rec []byte, codec uint8, from, to int16) {
		if len(dictData) == 0 || len(dictData) > 1<<12 || len(rec) > 1<<12 {
			t.Skip()
		}
		d, err := NewDictionaryForDecode(dictData)
		if err != nil {
			t.Skip()
		}
		c := everyCodec[int(codec&^resealMode)%len(everyCodec)]
		if codec&resealMode != 0 && c.Pos == PosP {
			rec = resealP(rec)
		}
		doc, err := decodeBoth(t, d, c, rec)
		if c == CodecUV || c == CodecPV {
			uv, used, ok := rec, 0, true
			if c == CodecPV {
				uv, used, ok = refPVtoUV(rec)
			}
			var want []byte
			var uvUsed int
			if ok {
				want, uvUsed, ok = refDecodeUV(dictData, uv)
			}
			if c == CodecUV {
				used = uvUsed
			}
			if ok != (err == nil) {
				t.Fatalf("reference accepts = %v, decoders' err = %v", ok, err)
			}
			if _, gotUsed, _ := d.DecodeRecord(nil, c, rec); ok && (!bytes.Equal(doc, want) || gotUsed != used) {
				t.Fatalf("decoders yield %d bytes of a %d-byte record, the reference %d of %d", len(doc), gotUsed, len(want), used)
			}
		}
		if err != nil {
			return
		}
		lo, hi := min(max(int(from), 0), len(doc)), min(max(int(to), 0), len(doc))
		part, _, err := d.DecodeRecordRange([]byte("kept"), c, rec, int(from), int(to))
		if err != nil || string(part[:4]) != "kept" || !bytes.Equal(part[4:], doc[lo:max(lo, hi)]) {
			t.Fatalf("range [%d,%d) of a %d-byte document: %d bytes, %v", from, to, len(doc), len(part)-4, err)
		}
	})
}

package rlz

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rlz/internal/codec"
	"rlz/internal/coding"
	"rlz/internal/corpus"
)

// sealP frames a P record of k factors around the given position and
// length streams and ends it in their CRC32-C, as Encode does.
func sealP(k int, pos, lens []byte) []byte {
	rec := coding.PutUvarint32(nil, uint32(k))
	if k > 0 {
		rec = putBlob(putBlob(rec, pos), lens)
	}
	return coding.PutU32(rec, crc32.Checksum(rec, castagnoli))
}

// resealP overwrites the CRC of the P record at the front of rec with
// the one its other bytes should have, wherever the record's framing
// puts it, so that a mutated record reaches the checks behind the CRC.
// A record whose framing does not parse, or that has no room for a CRC,
// is returned as it came.
func resealP(rec []byte) []byte {
	k, used, err := coding.Uvarint32(rec)
	if err != nil {
		return rec
	}
	for i := 0; k > 0 && i < 2; i++ {
		_, n, err := readBlob(rec[used:])
		if err != nil {
			return rec
		}
		used += n
	}
	if len(rec)-used < 4 {
		return rec
	}
	out := append([]byte{}, rec...)
	binary.LittleEndian.PutUint32(out[used:], crc32.Checksum(out[:used], castagnoli))
	return out
}

// refPVtoUV is the reference FuzzDecodeRecord holds the P decoder to: it
// rewrites a PV record as the UV record of the same factors, sharing no
// code with the package — the CRC through hash/crc32, packed positions
// and repeats tokens read one bit at a time, a zlib body through
// compress/zlib. ok is false for a record that must be rejected; used
// counts its CRC.
func refPVtoUV(rec []byte) (uv []byte, used int, ok bool) {
	uvarint := func(b []byte) (v uint64, n int, ok bool) {
		for i := 0; i < len(b) && i < 5; i++ {
			v |= uint64(b[i]&0x7f) << (7 * i)
			if b[i] < 0x80 {
				return v, i + 1, v < 1<<32
			}
		}
		return 0, 0, false
	}
	k, used, ok := uvarint(rec)
	if !ok || k > uint64(len(rec))*256 {
		return nil, 0, false
	}
	var streams [2][]byte
	for i := 0; k > 0 && i < 2; i++ {
		size, n, ok := uvarint(rec[used:])
		if !ok || size > uint64(len(rec)-used-n) {
			return nil, 0, false
		}
		streams[i] = rec[used+n : used+n+int(size)]
		used += n + int(size)
	}
	if len(rec)-used < 4 || crc32.Checksum(rec[:used], crc32.MakeTable(crc32.Castagnoli)) !=
		uint32(rec[used])|uint32(rec[used+1])<<8|uint32(rec[used+2])<<16|uint32(rec[used+3])<<24 {
		return nil, 0, false
	}
	used += 4
	uv = binary.AppendUvarint(nil, k)
	if k == 0 {
		return uv, used, true
	}
	pos, lens := streams[0], streams[1]
	if len(pos) == 0 || pos[0] > 33 {
		return nil, 0, false
	}
	var words []byte
	if pos[0] == 33 {
		if words, lens, ok = refRepeats(pos[1:], lens, k); !ok {
			return nil, 0, false
		}
	} else if w := uint64(pos[0]); w == 0 {
		zr, err := zlib.NewReader(bytes.NewReader(pos[1:]))
		if err != nil {
			return nil, 0, false
		}
		if words, err = io.ReadAll(io.LimitReader(zr, int64(4*k+1))); err != nil || uint64(len(words)) != 4*k {
			return nil, 0, false
		}
	} else {
		body := pos[1:]
		if uint64(len(body)) != (k*w+7)/8 {
			return nil, 0, false
		}
		bit := func(i uint64) uint32 { return uint32(body[i/8]>>(i%8)) & 1 }
		for i := k * w; i < 8*uint64(len(body)); i++ {
			if bit(i) != 0 {
				return nil, 0, false
			}
		}
		for i := uint64(0); i < k; i++ {
			var v uint32
			for j := uint64(0); j < w; j++ {
				v |= bit(i*w+j) << j
			}
			words = append(words, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
	}
	uv = binary.AppendUvarint(uv, uint64(len(words)))
	uv = append(uv, words...)
	uv = binary.AppendUvarint(uv, uint64(len(lens)))
	return append(uv, lens...), used, true
}

// refRepeats expands the body of a repeats position stream (its width
// byte, then tokens) and its flag-0 lengths into the positions and
// lengths of all k factors, as 4-byte words and vbytes, for refPVtoUV.
func refRepeats(body, flagLens []byte, k uint64) (words, lens []byte, ok bool) {
	if len(body) == 0 || body[0] < 1 || body[0] > 32 {
		return nil, nil, false
	}
	w, toks := uint64(body[0]), body[1:]
	at := uint64(0) // bits of toks read
	read := func(nb uint64) (v uint64, ok bool) {
		if at+nb > 8*uint64(len(toks)) {
			return 0, false
		}
		for j := uint64(0); j < nb; j++ {
			v |= uint64(toks[(at+j)/8]>>((at+j)%8)&1) << j
		}
		at += nb
		return v, true
	}
	bk := uint64(0) // bit-length of k
	for k>>bk != 0 {
		bk++
	}
	type factor struct{ p, l uint64 }
	var fs []factor
	for uint64(len(fs)) < k {
		flag, ok := read(1)
		if !ok {
			return nil, nil, false
		}
		if flag == 0 {
			p, ok := read(w)
			var l uint64
			for i := 0; ok; i++ { // one vbyte of flagLens, below 2^32
				if i == len(flagLens) || i == 5 {
					return nil, nil, false
				}
				l |= uint64(flagLens[i]&0x7f) << (7 * i)
				if flagLens[i] < 0x80 {
					flagLens = flagLens[i+1:]
					break
				}
			}
			if !ok || l >= 1<<32 {
				return nil, nil, false
			}
			fs = append(fs, factor{p, l})
			continue
		}
		d, ok1 := read(bk)
		r, ok2 := read(6)
		if d, r = d+1, r+2; !ok1 || !ok2 || d > uint64(len(fs)) || r > k-uint64(len(fs)) {
			return nil, nil, false
		}
		for j := uint64(0); j < r; j++ {
			fs = append(fs, fs[len(fs)-int(d)])
		}
	}
	if len(flagLens) != 0 || 8*uint64(len(toks))-at >= 8 {
		return nil, nil, false
	}
	for at < 8*uint64(len(toks)) {
		if v, _ := read(1); v != 0 {
			return nil, nil, false
		}
	}
	for _, f := range fs {
		words = append(words, byte(f.p), byte(f.p>>8), byte(f.p>>16), byte(f.p>>24))
		lens = binary.AppendUvarint(lens, f.l)
	}
	return words, lens, true
}

func TestPackPositionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for w := uint(1); w <= maxPackedWidth; w++ {
		for k := 0; k <= 70; k++ {
			fs := make([]Factor, k)
			for i := range fs {
				fs[i].Pos = uint32(rng.Uint64() & (1<<w - 1))
			}
			packed := packPositions(nil, fs, w)
			if len(packed) != (k*int(w)+7)/8 {
				t.Fatalf("w=%d k=%d: %d bytes", w, k, len(packed))
			}
			words := unpackPositions([]byte("stale"), packed, k, w)
			if !bytes.Equal(words, putPositions(nil, fs)) {
				t.Fatalf("w=%d k=%d: positions differ after a round trip", w, k)
			}
		}
	}
}

// repeatsRecord frames a PV record of k factors whose position stream
// is in repeats form at width w: each token is {flag 0, position} or
// {flag 1, d, r}, written at the widths the format gives them.
func repeatsRecord(k int, w uint, lens []byte, toks ...[3]uint64) []byte {
	bk := uint(bits.Len(uint(k)))
	bw := bitWriter{buf: []byte{posTagRepeats, byte(w)}}
	for _, tok := range toks {
		if tok[0] == 0 {
			bw.put(tok[1]<<1, 1+w)
			continue
		}
		bw.put(1|(tok[1]-1)<<1, 1+bk)
		bw.put(tok[2]-2, repeatCountBits)
	}
	return sealP(k, bw.flush(), lens)
}

// TestPRecordChoosesShorterForm checks the per-record choice: packed
// unless the repeats form is strictly shorter, the width the largest
// position needs, and no zlib positions ever, under every P codec.
func TestPRecordChoosesShorterForm(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	distinct := make([]Factor, 300)
	for i := range distinct {
		distinct[i] = Factor{Pos: uint32(rng.Intn(1 << 19)), Len: 9}
	}
	distinct[7].Pos = 1<<19 - 1
	repeated := make([]Factor, 300)
	for i := range repeated {
		repeated[i] = distinct[i%4]
	}
	oneRepeat := append(append([]Factor{}, distinct...), distinct[:2]...)
	for _, tc := range []struct {
		name string
		fs   []Factor
		tag  byte
	}{
		{"distinct", distinct, 19},
		{"repeated", repeated, posTagRepeats},
		{"one repeat", oneRepeat, 19},
		{"one literal", []Factor{{Pos: 0}}, 1},
	} {
		rec := CodecPV.Encode(nil, tc.fs)
		if tag := tagOf(rec); tag != tc.tag {
			t.Errorf("%s: position tag %d, want %d", tc.name, tag, tc.tag)
		}
		if zv := CodecZV.Encode(nil, tc.fs); len(rec) > len(zv)+5 {
			t.Errorf("%s: PV record %d bytes, ZV %d", tc.name, len(rec), len(zv))
		}
	}

	d, err := NewDictionaryForDecode(bytes.Repeat([]byte("0123456789abcdef"), 64))
	if err != nil {
		t.Fatal(err)
	}
	repeats := map[PairCodec]int{}
	for trial := 0; trial < 300; trial++ {
		// Runs of factors drawn from a small alphabet repeat at every
		// distance and overlap; trial sets how small.
		alphabet := make([]Factor, 1+trial%40)
		for i := range alphabet {
			alphabet[i] = Factor{Pos: uint32(rng.Intn(1000)), Len: uint32(1 + rng.Intn(24))}
			if rng.Intn(5) == 0 {
				alphabet[i] = Factor{Pos: uint32(rng.Intn(256))}
			}
		}
		fs := make([]Factor, 1+rng.Intn(400))
		for i := range fs {
			if i >= 8 && rng.Intn(3) == 0 {
				fs[i] = fs[i-1-rng.Intn(8)]
			} else {
				fs[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		want, err := d.Decode(nil, fs)
		if err != nil {
			t.Fatal(err)
		}
		w := widthOf(fs)
		packedOnly := sealP(len(fs), packPositions([]byte{byte(w)}, fs, w), putLengths(nil, fs))
		for _, name := range []string{"PV", "PZ", "PS", "PH"} {
			c, _ := CodecByName(name)
			rec := c.Encode(nil, fs)
			switch tag := tagOf(rec); {
			case tag == posTagZlib:
				t.Fatalf("trial %d %s: zlib positions written", trial, c)
			case tag == posTagRepeats:
				repeats[c]++
			}
			switch tag := tagOf(rec); {
			case tag == posTagRepeats && c == CodecPV && len(rec) >= len(packedOnly):
				t.Fatalf("trial %d: repeats record %d bytes, packed %d", trial, len(rec), len(packedOnly))
			case tag != posTagRepeats && tag != byte(w):
				t.Fatalf("trial %d %s: tag %d, want width %d", trial, c, tag, w)
			}
			got, used, err := d.DecodeRecord(nil, c, rec)
			if err != nil || used != len(rec) || !bytes.Equal(got, want) {
				t.Fatalf("trial %d %s: %d of %d bytes back, %v", trial, c, len(got), len(want), err)
			}
			back, _, err := c.Decode(nil, rec)
			if err != nil || !slices.Equal(back, fs) {
				t.Fatalf("trial %d %s: factors differ after a round trip (%v)", trial, c, err)
			}
		}
	}
	for _, name := range []string{"PV", "PZ", "PS", "PH"} {
		if c, _ := CodecByName(name); repeats[c] == 0 {
			t.Errorf("%s never took the repeats form in 300 trials", c)
		}
	}
}

// TestPRecordRejects has one row per check between a P record's bytes
// and the kernel. Every row but the CRC rows carries a valid CRC, so it
// is the check named that rejects it. A repeat stores d−1, so d = 0
// cannot be written; a repeat as the first token, with no factor before
// it, is the row that stands for it.
func TestPRecordRejects(t *testing.T) {
	d, err := NewDictionaryForDecode([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	const k = 3 // three literals '1', '2', '3' at width 6: 18 bits in 3 bytes
	fs := []Factor{{Pos: '1'}, {Pos: '2'}, {Pos: '3'}}
	packed := append([]byte{6}, packPositions(nil, fs, 6)...)
	lens := putLengths(nil, fs)
	good := sealP(k, packed, lens)
	if doc, _, err := d.DecodeRecord(nil, CodecPV, good); err != nil || string(doc) != "123" {
		t.Fatalf("the well-formed record decodes to %q, %v", doc, err)
	}
	words := putPositions(nil, fs)
	inflatesTo := func(b []byte) []byte { return append([]byte{posTagZlib}, codec.ZlibCompress(nil, b)...) }
	badPad := append([]byte{}, packed...)
	badPad[len(badPad)-1] |= 0x80
	badCRC := append([]byte{}, good...)
	badCRC[len(badCRC)-1] ^= 1

	// "12" and then six factors two back, "121212": two flag-0 tokens of
	// 7 bits and one repeat of 1+4+6, 25 bits in 4 bytes.
	lit := func(p uint64) [3]uint64 { return [3]uint64{0, p} }
	again := func(d, r uint64) [3]uint64 { return [3]uint64{1, d, r} }
	twoLens := putLengths(nil, fs[:2])
	rgood := repeatsRecord(8, 6, twoLens, lit('1'), lit('2'), again(2, 6))
	if doc, _, err := d.DecodeRecord(nil, CodecPV, rgood); err != nil || string(doc) != "12121212" {
		t.Fatalf("the well-formed repeats record decodes to %q, %v", doc, err)
	}
	_, n, _ := coding.Uvarint32(rgood)
	rpos, _, _ := readBlob(rgood[n:])
	rPad := append([]byte{}, rpos...)
	rPad[len(rPad)-1] |= 0x80
	// The same two lengths under S and H, whose decoders count the
	// flag-0 tokens first.
	s9Lens, _ := coding.PutSimple9([]byte{lenModeSimple9}, []uint32{0, 0})
	hLens := encodeLensHuffman(nil, fs[:2])
	for _, c := range []PairCodec{{PosP, LenS}, {PosP, LenH}} {
		lens := map[LenCoding][]byte{LenS: s9Lens, LenH: hLens}[c.Len]
		rec := repeatsRecord(8, 6, lens, lit('1'), lit('2'), again(2, 6))
		if doc, _, err := d.DecodeRecord(nil, c, rec); err != nil || string(doc) != "12121212" {
			t.Fatalf("the well-formed %s repeats record decodes to %q, %v", c, doc, err)
		}
	}

	for _, tc := range []struct {
		name, want string
		c          PairCodec
		rec        []byte
	}{
		{"tag 34", "position tag 34", CodecPV, sealP(k, append([]byte{34}, packed[1:]...), lens)},
		{"body one byte short", "2 packed position bytes", CodecPV, sealP(k, packed[:len(packed)-1], lens)},
		{"body one byte long", "4 packed position bytes", CodecPV, sealP(k, append(append([]byte{}, packed...), 0), lens)},
		{"non-zero pad bits", "non-zero padding", CodecPV, sealP(k, badPad, lens)},
		{"zlib short of 4k bytes", "position zlib", CodecPV, sealP(k, inflatesTo(words[:4*k-1]), lens)},
		{"zlib past 4k bytes", "position zlib", CodecPV, sealP(k, inflatesTo(append(words, 0)), lens)},
		{"empty position stream", "empty position stream", CodecPV, sealP(k, nil, lens)},
		{"CRC mismatch", "CRC mismatch", CodecPV, badCRC},
		{"CRC truncated", "CRC truncated", CodecPV, good[:len(good)-1]},
		{"empty record's CRC truncated", "CRC truncated", CodecPV, sealP(0, nil, nil)[:4]},
		{"repeats without a width", "without a width", CodecPV, sealP(k, []byte{posTagRepeats}, lens)},
		{"repeats at width 0", "without a width", CodecPV, sealP(k, []byte{posTagRepeats, 0}, lens)},
		{"repeats at width 33", "without a width", CodecPV, sealP(k, []byte{posTagRepeats, 33}, lens)},
		{"repeat before any factor (d = 0 cannot be stored)", "repeat 1 factors back at factor 0", CodecPV,
			repeatsRecord(4, 6, twoLens, again(1, 2), lit('1'), lit('2'))},
		{"d beyond the factors decoded", "repeat 3 factors back at factor 2", CodecPV,
			repeatsRecord(8, 6, twoLens, lit('1'), lit('2'), again(3, 6))},
		{"r beyond the factors left", "repeat of 7 factors at factor 2 of 8", CodecPV,
			repeatsRecord(8, 6, twoLens, lit('1'), lit('2'), again(2, 7))},
		{"truncated token", "truncated at factor 2", CodecPV, sealP(8, rpos[:len(rpos)-1], twoLens)},
		{"stream short of k factors", "truncated at factor 8", CodecPV,
			repeatsRecord(9, 7, twoLens, lit('1'), lit('2'), again(2, 6))}, // 27 bits: 5 of padding, short of a token
		{"non-zero padding", "non-zero padding after repeats", CodecPV, sealP(8, rPad, twoLens)},
		{"a byte after the last token", "bits after the last repeats token", CodecPV,
			sealP(8, append(append([]byte{}, rpos...), 0), twoLens)},
		{"length stream one entry long", "1 trailing bytes in length stream", CodecPV,
			repeatsRecord(8, 6, putLengths(nil, fs), lit('1'), lit('2'), again(2, 6))},
		{"length stream one entry short", "length 1: coding: short buffer", CodecPV,
			repeatsRecord(8, 6, twoLens[:1], lit('1'), lit('2'), again(2, 6))},
		{"S lengths, d beyond the factors decoded", "repeat 3 factors back at factor 2", PairCodec{PosP, LenS},
			repeatsRecord(8, 6, s9Lens, lit('1'), lit('2'), again(3, 6))},
		{"H lengths, a byte after the last token", "bits after the last repeats token", PairCodec{PosP, LenH},
			sealP(8, append(append([]byte{}, rpos...), 0), hLens)},
	} {
		for _, decode := range []func() error{
			func() error { _, _, err := d.DecodeRecord(nil, tc.c, tc.rec); return err },
			func() error { _, _, err := tc.c.Decode(nil, tc.rec); return err },
			func() error { _, _, err := d.DecodeRecordRange(nil, tc.c, tc.rec, 0, 1<<20); return err },
		} {
			if err := decode(); !errors.Is(err, ErrCorruptEncoding) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
			}
		}
	}
}

// TestRepeatsRangeStartsInsideRepeat reads every range of a document
// whose record repeats runs of factors, overlapping ones included, and
// so ranges that start, and end, inside a repeat.
func TestRepeatsRangeStartsInsideRepeat(t *testing.T) {
	d, err := NewDictionaryForDecode([]byte("<p>relative lempel-ziv</p>"))
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := Factor{Pos: 0, Len: 3}, Factor{Pos: 3, Len: 8}, Factor{Pos: '!'}
	fs := []Factor{a, b, c, a, b, c, a, b, c, a, b, c, {Pos: 11, Len: 5}, a, b}
	rec := CodecPV.Encode(nil, fs)
	if tagOf(rec) != posTagRepeats {
		t.Fatalf("position tag %d, want repeats", tagOf(rec))
	}
	doc, err := d.Decode(nil, fs)
	if err != nil {
		t.Fatal(err)
	}
	for from := -1; from <= len(doc)+1; from++ {
		for to := from - 1; to <= len(doc)+1; to++ {
			got, used, err := d.DecodeRecordRange([]byte(">"), CodecPV, rec, from, to)
			lo, hi := min(max(from, 0), len(doc)), min(max(to, 0), len(doc))
			if err != nil || used != len(rec) || string(got) != ">"+string(doc[lo:max(lo, hi)]) {
				t.Fatalf("[%d,%d): got %q used %d err %v, want %q", from, to, got, used, err, doc[lo:max(lo, hi)])
			}
		}
	}
}

// TestPVRecordBytesNearZV is PV's size guard over the 32 MiB Gov and
// Wiki stand-ins the benchmark serves: PV must store less than ZV at a
// dictionary of 1 % (where most records pack) and of 0.1 % (where a
// document's short factors repeat in runs and most records take the
// repeats form). It logs the share of records in each form, the share
// of factors inside a repeat, and what always packing would have cost.
func TestPVRecordBytesNearZV(t *testing.T) {
	if testing.Short() {
		t.Skip("factorizes 128 MiB")
	}
	for _, prof := range []corpus.Profile{corpus.Gov, corpus.Wiki} {
		c := corpus.Generate(prof, 32<<20, 1)
		text := c.Bytes()
		for _, permille := range []int{10, 1} {
			d, err := NewDictionary(SampleEven(text, len(text)*permille/1000, 1024))
			if err != nil {
				t.Fatal(err)
			}
			fz := NewFactorizer(d, FactorizerOptions{})
			var pv, zv, packedOnly, nRepeats, factors, inRepeats int
			var fs []Factor
			for _, doc := range c.Docs {
				fs = fz.Factorize(doc.Body, fs[:0])
				rec := CodecPV.Encode(nil, fs)
				pv += len(rec)
				zv += len(CodecZV.Encode(nil, fs))
				if len(fs) == 0 {
					packedOnly += len(sealP(0, nil, nil))
					continue
				}
				w := widthOf(fs)
				always := sealP(len(fs), packPositions([]byte{byte(w)}, fs, w), putLengths(nil, fs))
				packedOnly += len(always)
				factors += len(fs)
				if tagOf(rec) == posTagRepeats {
					nRepeats++
					inRepeats += len(fs) - flagZeroCount(rec)
				}
			}
			name := fmt.Sprintf("%s at %d.%d %%", prof.Name, permille/10, permille%10)
			t.Logf("%s: PV %d bytes, ZV %d (%+.1f %%), always packed %+.1f %%; of %d records %d packed, %d repeats; %.1f %% of factors inside a repeat",
				name, pv, zv, 100*float64(pv-zv)/float64(zv), 100*float64(packedOnly-zv)/float64(zv),
				len(c.Docs), len(c.Docs)-nRepeats, nRepeats, 100*float64(inRepeats)/float64(factors))
			if pv >= zv {
				t.Errorf("%s: PV records hold %d bytes, ZV's %d", name, pv, zv)
			}
		}
	}
}

// flagZeroCount returns the number of flag-0 tokens of a PV record in
// repeats form: the number of vbytes in its length stream.
func flagZeroCount(rec []byte) int {
	_, n, _ := coding.Uvarint32(rec)
	_, m, _ := readBlob(rec[n:])
	lens, _, _ := readBlob(rec[n+m:])
	count := 0
	for _, b := range lens {
		if b < 0x80 {
			count++
		}
	}
	return count
}

// tagOf returns the position tag of a P record of at least one factor.
func tagOf(rec []byte) byte {
	_, n, _ := coding.Uvarint32(rec)
	pos, _, _ := readBlob(rec[n:])
	return pos[0]
}

// widthOf returns the packing width of the factors' positions.
func widthOf(fs []Factor) uint {
	w := uint(1)
	for _, f := range fs {
		for f.Pos>>w != 0 {
			w++
		}
	}
	return w
}

// BenchmarkDecodeRecord decodes 4 MiB of documents from their records
// through the path a cold Get takes (Dictionary.DecodeRecord): ZV
// inflates every position stream, PV none. The documents are the first
// 4 MiB of the seeded 32 MiB Gov corpus the static-cold benchmark
// serves, against two dictionaries:
//
//   - 1pct: a 1 % dictionary of all 32 MiB (335 KiB), static-cold's;
//     most records pack.
//   - 41KiB: a 1 % dictionary of the first 4 MiB, the size live-mixed's
//     collection starts with. Its documents split into ~1,300 short
//     factors that repeat in runs, and every record takes the repeats
//     form.
func BenchmarkDecodeRecord(b *testing.B) {
	c := corpus.Generate(corpus.Gov, 32<<20, 1)
	text := c.Bytes()
	docs := 0
	for size := 0; size < 4<<20; docs++ {
		size += len(c.Docs[docs].Body)
	}
	first := corpus.Collection{Docs: c.Docs[:docs]}
	for _, dc := range []struct {
		name   string
		sample []byte
	}{
		{"1pct", SampleEven(text, len(text)/100, 1024)},
		{"41KiB", SampleEven(first.Bytes(), int(first.TotalSize())/100, 1024)},
	} {
		d, err := NewDictionary(dc.sample)
		if err != nil {
			b.Fatal(err)
		}
		fz := NewFactorizer(d, FactorizerOptions{})
		factors := make([][]Factor, docs)
		for i := range factors {
			factors[i] = fz.Factorize(c.Docs[i].Body, nil)
		}
		for _, pc := range []PairCodec{CodecZV, CodecPV} {
			recs := make([][]byte, len(factors))
			repeats := 0
			out := make([]byte, 0, 1<<20)
			for i, fs := range factors {
				recs[i] = pc.Encode(nil, fs)
				if pc.Pos == PosP && len(fs) > 0 && tagOf(recs[i]) == posTagRepeats {
					repeats++
				}
				if out, _, err = d.DecodeRecord(out[:0], pc, recs[i]); err != nil || !bytes.Equal(out, c.Docs[i].Body) {
					b.Fatalf("%s %s document %d: %v", dc.name, pc, i, err)
				}
			}
			b.Run(dc.name+"/"+pc.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, rec := range recs {
						if out, _, err = d.DecodeRecord(out[:0], pc, rec); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/doc")
				b.ReportMetric(100*float64(repeats)/float64(len(recs)), "repeats_pct")
			})
		}
	}
}

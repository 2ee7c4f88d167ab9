package rlz

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
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
// read one bit at a time, a zlib body through compress/zlib. ok is false
// for a record that must be rejected; used counts its CRC.
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
	pos := streams[0]
	if len(pos) == 0 || pos[0] > 32 {
		return nil, 0, false
	}
	var words []byte
	if w := uint64(pos[0]); w == 0 {
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
	uv = binary.AppendUvarint(uv, uint64(len(streams[1])))
	return append(uv, streams[1]...), used, true
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

// TestPRecordChoosesShorterForm checks the per-record choice: packed
// where it is no longer than the zlib stream, zlib where the positions
// repeat, and the width the largest position needs.
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
	for _, tc := range []struct {
		name string
		fs   []Factor
		tag  byte
	}{
		{"distinct", distinct, 19},
		{"repeated", repeated, posTagZlib},
		{"one literal", []Factor{{Pos: 0}}, 1},
	} {
		rec := CodecPV.Encode(nil, tc.fs)
		_, n, _ := coding.Uvarint32(rec)
		pos, _, err := readBlob(rec[n:])
		if err != nil || pos[0] != tc.tag {
			t.Errorf("%s: position tag %d, want %d (%v)", tc.name, pos[0], tc.tag, err)
		}
		zv := CodecZV.Encode(nil, tc.fs)
		if len(rec) > len(zv)+5 {
			t.Errorf("%s: PV record %d bytes, ZV %d", tc.name, len(rec), len(zv))
		}
	}
}

// TestPRecordRejects has one row per check between a P record's bytes
// and the kernel. Every row but the CRC rows carries a valid CRC, so it
// is the check named that rejects it.
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
	for _, tc := range []struct {
		name, want string
		rec        []byte
	}{
		{"tag 33", "position tag 33", sealP(k, append([]byte{33}, packed[1:]...), lens)},
		{"body one byte short", "2 packed position bytes", sealP(k, packed[:len(packed)-1], lens)},
		{"body one byte long", "4 packed position bytes", sealP(k, append(append([]byte{}, packed...), 0), lens)},
		{"non-zero pad bits", "non-zero padding", sealP(k, badPad, lens)},
		{"zlib short of 4k bytes", "position zlib", sealP(k, inflatesTo(words[:4*k-1]), lens)},
		{"zlib past 4k bytes", "position zlib", sealP(k, inflatesTo(append(words, 0)), lens)},
		{"empty position stream", "empty position stream", sealP(k, nil, lens)},
		{"CRC mismatch", "CRC mismatch", badCRC},
		{"CRC truncated", "CRC truncated", good[:len(good)-1]},
		{"empty record's CRC truncated", "CRC truncated", sealP(0, nil, nil)[:4]},
	} {
		for _, decode := range []func() error{
			func() error { _, _, err := d.DecodeRecord(nil, CodecPV, tc.rec); return err },
			func() error { _, _, err := CodecPV.Decode(nil, tc.rec); return err },
		} {
			if err := decode(); !errors.Is(err, ErrCorruptEncoding) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
			}
		}
	}
}

// TestPVRecordBytesNearZV is PV's size guard over the 32 MiB Gov and
// Wiki stand-ins the benchmark serves: per record, packing is chosen only
// where it is no longer than the zlib stream, so PV stores at most its tag
// and CRC (5 bytes) more than ZV per record, at a dictionary of 1 %
// (where most records pack, and PV must store less than ZV) and of 0.1 %
// (where nearly all keep zlib). It logs what always packing would have
// cost.
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
			var pv, zv, packedOnly, nPacked int
			var fs []Factor
			for _, doc := range c.Docs {
				fs = fz.Factorize(doc.Body, fs[:0])
				pv += len(CodecPV.Encode(nil, fs))
				zv += len(CodecZV.Encode(nil, fs))
				if len(fs) == 0 {
					packedOnly += len(sealP(0, nil, nil))
					continue
				}
				w := widthOf(fs)
				always := sealP(len(fs), packPositions([]byte{byte(w)}, fs, w), putLengths(nil, fs))
				packedOnly += len(always)
				if tagOf(CodecPV.Encode(nil, fs)) != posTagZlib {
					nPacked++
				}
			}
			name := fmt.Sprintf("%s at %d.%d %%", prof.Name, permille/10, permille%10)
			t.Logf("%s: PV %d bytes, ZV %d (%+.1f %%), always packed %+.1f %%; %d of %d records packed",
				name, pv, zv, 100*float64(pv-zv)/float64(zv), 100*float64(packedOnly-zv)/float64(zv), nPacked, len(c.Docs))
			if pv > zv+5*len(c.Docs) {
				t.Errorf("%s: PV records hold %d bytes, more than ZV's %d + 5 per record", name, pv, zv)
			}
			if permille == 10 && pv >= zv {
				t.Errorf("%s: PV records hold %d bytes, ZV's %d", name, pv, zv)
			}
		}
	}
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
// inflates every position stream, PV only those that packing would not
// have made shorter. The documents are the first 4 MiB of the seeded
// 32 MiB Gov corpus the static-cold benchmark serves, against a 1 %
// dictionary of all of it (335 KiB). A 1 % dictionary of a 4 MiB corpus
// would be 41 KiB: its documents split into ~1,300 short factors whose
// positions repeat, and 8 of 256 records pack.
func BenchmarkDecodeRecord(b *testing.B) {
	c := corpus.Generate(corpus.Gov, 32<<20, 1)
	text := c.Bytes()
	d, err := NewDictionary(SampleEven(text, len(text)/100, 1024))
	if err != nil {
		b.Fatal(err)
	}
	fz := NewFactorizer(d, FactorizerOptions{})
	var factors [][]Factor
	for i, size := 0, 0; size < 4<<20; i++ {
		factors = append(factors, fz.Factorize(c.Docs[i].Body, nil))
		size += len(c.Docs[i].Body)
	}
	for _, pc := range []PairCodec{CodecZV, CodecPV} {
		recs := make([][]byte, len(factors))
		packed := 0
		out := make([]byte, 0, 1<<20)
		for i, fs := range factors {
			recs[i] = pc.Encode(nil, fs)
			if pc.Pos == PosP && len(fs) > 0 && tagOf(recs[i]) != posTagZlib {
				packed++
			}
			if out, _, err = d.DecodeRecord(out[:0], pc, recs[i]); err != nil || !bytes.Equal(out, c.Docs[i].Body) {
				b.Fatalf("%s document %d: %v", pc, i, err)
			}
		}
		b.Run(pc.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, rec := range recs {
					if out, _, err = d.DecodeRecord(out[:0], pc, rec); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/doc")
			b.ReportMetric(100*float64(packed)/float64(len(recs)), "packed_pct")
		})
	}
}

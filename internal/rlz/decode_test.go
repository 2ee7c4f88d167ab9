package rlz

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"rlz/internal/codec"
	"rlz/internal/coding"
)

// everyCodec is the paper's four pair codecs and the four extensions.
var everyCodec = append(append([]PairCodec{}, AllCodecs...), ExtensionCodecs...)

// decodeBoth decodes one record the layered way (PairCodec.Decode, then
// Dictionary.Decode) and the fused way, and fails unless they agree: the
// same bytes and record length, or both an error. The fused decode runs
// once for each amount of spare capacity in dst that puts the kernel's
// last runs on a different side of its word-copy condition.
func decodeBoth(t *testing.T, d *Dictionary, c PairCodec, rec []byte) (doc []byte, err error) {
	t.Helper()
	factors, used, err := c.Decode(nil, rec)
	var want []byte
	if err == nil {
		want, err = d.Decode(nil, factors)
	}
	const prefix = "kept"
	for _, spare := range []int{0, 1, runSlack - 1, runSlack, len(want), len(want) + 1, len(want) + runSlack - 1, len(want) + runSlack} {
		dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
		got, gotUsed, gotErr := d.DecodeRecord(dst, c, rec)
		if (gotErr == nil) != (err == nil) {
			t.Fatalf("%s: fused err = %v, layered err = %v", c, gotErr, err)
		}
		if gotErr != nil {
			if string(got) != prefix {
				t.Fatalf("%s: rejected record left %q in dst", c, got)
			}
			if !errors.Is(gotErr, ErrCorruptEncoding) && !errors.Is(gotErr, ErrBadFactor) {
				t.Fatalf("%s: fused error %v wraps neither sentinel", c, gotErr)
			}
			continue
		}
		if gotUsed != used || string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: fused decode into %d spare bytes differs: %d bytes used %d, layered %d bytes used %d", c, spare, len(got)-len(prefix), gotUsed, len(want), used)
		}
	}
	return want, err
}

func TestDecodeRecordMatchesLayeredDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	text := make([]byte, 4096)
	for i := range text {
		text[i] = "abcdefgh <>/\n"[rng.Intn(13)]
	}
	d, err := NewDictionaryForDecode(text)
	if err != nil {
		t.Fatal(err)
	}
	good := randomFactors(rng, 200, uint32(len(text)))
	for i := range good { // randomFactors knows the length, not the bound
		if good[i].Len > 0 && good[i].Pos+good[i].Len > uint32(len(text)) {
			good[i].Len = uint32(len(text)) - good[i].Pos
		}
	}
	cases := map[string][]Factor{
		"good":        good,
		"empty":       nil,
		"one literal": {{Pos: 'x'}},
		"long vbyte":  {{Pos: 0, Len: 4000}, {Pos: 7, Len: 300}},
		"bad literal": append(append([]Factor{}, good[:20]...), Factor{Pos: 256}),
		"past end":    append(append([]Factor{}, good[:20]...), Factor{Pos: 4000, Len: 97}),
		"pos past":    {{Pos: 4096, Len: 1}},
		"huge":        {{Pos: 1, Len: 1 << 31}},
	}
	for name, fs := range cases {
		for _, c := range everyCodec {
			rec := c.Encode(nil, fs)
			doc, err := decodeBoth(t, d, c, rec)
			if wantErr := name != "good" && name != "empty" && name != "one literal" && name != "long vbyte"; (err != nil) != wantErr {
				t.Errorf("%s/%s: err = %v", name, c, err)
			}
			if err == nil && len(doc) != DecodedLen(fs) {
				t.Errorf("%s/%s: %d bytes, want %d", name, c, len(doc), DecodedLen(fs))
			}
			if name != "good" {
				continue
			}
			// Records concatenate: the fused decoder must stop where the
			// record does.
			if _, used, err := d.DecodeRecord(nil, c, append(append([]byte{}, rec...), "next record"...)); err != nil || used != len(rec) {
				t.Errorf("%s: used %d of %d record bytes: %v", c, used, len(rec), err)
			}
			for cut := 0; cut < len(rec); cut += 1 + len(rec)/97 {
				if _, err := decodeBoth(t, d, c, rec[:cut]); err == nil {
					t.Errorf("%s: truncation to %d of %d bytes accepted", c, cut, len(rec))
				}
			}
			for trial := 0; trial < 200; trial++ {
				bad := append([]byte{}, rec...)
				bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
				decodeBoth(t, d, c, bad) // any outcome, as long as both agree
			}
			// A length stream with bytes left over after the last factor.
			if c.Len == LenV {
				decodeBoth(t, d, c, append(c.Encode(nil, fs[:3]), 0))
			}
		}
	}
}

func TestDecodeRecordRangeMatchesDecodeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	text := bytes.Repeat([]byte("the quick brown fox "), 50)
	d, err := NewDictionary(text)
	if err != nil {
		t.Fatal(err)
	}
	doc := append(append([]byte("#"), text[100:400]...), "~~"...)
	fs := d.Factorize(doc, nil)
	for _, c := range everyCodec {
		rec := c.Encode(nil, fs)
		for trial := 0; trial < 50; trial++ {
			from, to := rng.Intn(len(doc)+20)-10, rng.Intn(len(doc)+20)-10
			want, err := d.DecodeRange(nil, fs, from, to)
			if err != nil {
				t.Fatal(err)
			}
			got, used, err := d.DecodeRecordRange([]byte(">"), c, rec, from, to)
			if err != nil || used != len(rec) || string(got) != ">"+string(want) {
				t.Fatalf("%s [%d,%d): got %q used %d err %v, want %q", c, from, to, got, used, err, want)
			}
		}
	}
}

// bombRecord frames a record of k literal factors with bomb in place of
// its position stream (behind the zlib tag, under P), or else its length
// stream.
func bombRecord(c PairCodec, k int, bomb []byte, inPositions bool) []byte {
	honest := make([]Factor, k)
	for i := range honest {
		honest[i] = Factor{Pos: 'a'}
	}
	rec := c.Encode(nil, honest)
	_, n, _ := coding.Uvarint32(rec)
	pos, m, _ := readBlob(rec[n:])
	lens, _, _ := readBlob(rec[n+m:])
	if inPositions {
		pos = bomb
		if c.Pos == PosP {
			pos = append([]byte{posTagZlib}, bomb...)
		}
	} else {
		lens = bomb
	}
	if c.Pos == PosP {
		return sealP(k, pos, lens)
	}
	out := coding.PutUvarint32(nil, uint32(k))
	out = coding.PutUvarint32(out, uint32(len(pos)))
	out = append(out, pos...)
	out = coding.PutUvarint32(out, uint32(len(lens)))
	return append(out, lens...)
}

// TestDecodeRejectsStreamBombs is the regression test for the unbounded
// io.Copy the Z streams used to be inflated with: a record of n bytes
// could make a reader inflate ~1000·n bytes before the stream's length
// was compared with the factor count. The bound now goes in first.
func TestDecodeRejectsStreamBombs(t *testing.T) {
	const bombSize = 64 << 20
	bomb := codec.ZlibCompress(nil, make([]byte, bombSize))
	d, err := NewDictionaryForDecode([]byte("a dictionary"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		c           PairCodec
		inPositions bool
	}{
		{"positions", CodecZV, true},
		{"positions", CodecZZ, true},
		{"positions", CodecPV, true},
		{"lengths", CodecUZ, false},
		{"lengths", CodecZZ, false},
	} {
		rec := bombRecord(tc.c, 10, bomb, tc.inPositions)
		if len(rec) > bombSize/900 {
			t.Fatalf("bomb record is %d bytes; expected ~1/1000 of %d", len(rec), bombSize)
		}
		for _, decode := range []struct {
			name string
			fn   func() error
		}{
			{"DecodeRecord", func() error { _, _, err := d.DecodeRecord(nil, tc.c, rec); return err }},
			{"Decode", func() error { _, _, err := tc.c.Decode(nil, rec); return err }},
			{"DecodeRecordRange", func() error { _, _, err := d.DecodeRecordRange(nil, tc.c, rec, 2, 5); return err }},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode.fn()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorruptEncoding) {
				t.Fatalf("%s %s bomb: %s: err = %v", tc.c, tc.name, decode.name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(rec)) {
				t.Errorf("%s %s bomb: %s allocated %d bytes rejecting a %d-byte record", tc.c, tc.name, decode.name, grew, len(rec))
			}
		}
	}
}

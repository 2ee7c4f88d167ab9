package rlz

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomFactors(rng *rand.Rand, n int, dictLen uint32) []Factor {
	fs := make([]Factor, n)
	for i := range fs {
		if rng.Intn(10) == 0 {
			fs[i] = Factor{Pos: uint32(rng.Intn(256)), Len: 0}
			continue
		}
		pos := rng.Uint32() % dictLen
		maxLen := dictLen - pos
		l := uint32(1 + rng.Intn(100))
		if l > maxLen {
			l = maxLen
		}
		if l == 0 {
			l = 1
			pos = 0
		}
		fs[i] = Factor{Pos: pos, Len: l}
	}
	return fs
}

func TestCodecRoundTripAllCombinations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, codec := range AllCodecs {
		for _, n := range []int{0, 1, 2, 17, 500} {
			fs := randomFactors(rng, n, 1<<20)
			enc := codec.Encode(nil, fs)
			dec, used, err := codec.Decode(nil, enc)
			if err != nil {
				t.Fatalf("%s n=%d: %v", codec, n, err)
			}
			if used != len(enc) {
				t.Fatalf("%s n=%d: consumed %d of %d", codec, n, used, len(enc))
			}
			if len(dec) != n {
				t.Fatalf("%s n=%d: decoded %d factors", codec, n, len(dec))
			}
			for i := range fs {
				if dec[i] != fs[i] {
					t.Fatalf("%s n=%d factor %d: %v != %v", codec, n, i, dec[i], fs[i])
				}
			}
		}
	}
}

func TestCodecDecodeConcatenatedDocuments(t *testing.T) {
	// A store concatenates per-document records; Decode must consume
	// exactly one record so the next starts cleanly.
	rng := rand.New(rand.NewSource(4))
	codec := CodecZV
	doc1 := randomFactors(rng, 20, 1000)
	doc2 := randomFactors(rng, 30, 1000)
	enc := codec.Encode(nil, doc1)
	enc = codec.Encode(enc, doc2)

	dec1, used, err := codec.Decode(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	dec2, _, err := codec.Decode(nil, enc[used:])
	if err != nil {
		t.Fatal(err)
	}
	if len(dec1) != 20 || len(dec2) != 30 {
		t.Fatalf("decoded %d and %d factors", len(dec1), len(dec2))
	}
	for i := range doc2 {
		if dec2[i] != doc2[i] {
			t.Fatalf("doc2 factor %d mismatch", i)
		}
	}
}

func TestCodecNamesAndParsing(t *testing.T) {
	for _, c := range AllCodecs {
		parsed, err := CodecByName(c.String())
		if err != nil || parsed != c {
			t.Errorf("CodecByName(%q) = %v, %v", c.String(), parsed, err)
		}
	}
	for _, bad := range []string{"", "Z", "XY", "VZ", "UU", "zz", "ZZZ"} {
		if _, err := CodecByName(bad); err == nil {
			t.Errorf("CodecByName(%q) accepted", bad)
		}
	}
}

func TestCodecSizeOrderingOnRealFactors(t *testing.T) {
	// On web-like documents the paper's size ordering is ZZ <= ZV and
	// UZ <= UV (zlib exploits within-document repetition); and any Z
	// position coding beats U positions. Build a document with repeated
	// internal structure to surface the effect.
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		sb.WriteString("<tr><td class=\"cell\">row data here</td></tr>\n")
		sb.WriteString("unique-")
		sb.WriteByte(byte('a' + i%26))
		sb.WriteString("\n")
	}
	dictText := []byte("<tr><td class=\"cell\">row data here</td></tr>\n some other boilerplate markup <div></div>")
	d := mustDict(t, dictText)
	fs := d.Factorize([]byte(sb.String()), nil)

	size := map[string]int{}
	for _, c := range AllCodecs {
		size[c.String()] = c.EncodedSize(fs)
	}
	if size["ZZ"] > size["UZ"] {
		t.Errorf("ZZ (%d) larger than UZ (%d)", size["ZZ"], size["UZ"])
	}
	if size["ZV"] > size["UV"] {
		t.Errorf("ZV (%d) larger than UV (%d)", size["ZV"], size["UV"])
	}
}

func TestCodecDecodeCorruptInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fs := randomFactors(rng, 50, 1<<16)
	for _, codec := range AllCodecs {
		enc := codec.Encode(nil, fs)
		// Truncations.
		for i := 0; i < len(enc); i += 3 {
			if _, _, err := codec.Decode(nil, enc[:i]); err == nil {
				t.Fatalf("%s: truncation to %d accepted", codec, i)
			}
		}
		// Bit flips: must either error or decode to *something* without
		// panicking; silent wrong output is acceptable only for U/V
		// codings where any byte string is a valid stream, but lengths
		// and counts must stay consistent.
		for trial := 0; trial < 30; trial++ {
			bad := append([]byte{}, enc...)
			bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic on corrupt input: %v", codec, r)
					}
				}()
				codec.Decode(nil, bad)
			}()
		}
	}
}

func TestCodecRoundTripQuick(t *testing.T) {
	f := func(raw []uint32, seed int64) bool {
		fs := make([]Factor, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			fs = append(fs, Factor{Pos: raw[i], Len: raw[i+1] % 4096})
		}
		codec := AllCodecs[int(uint64(seed)%uint64(len(AllCodecs)))]
		enc := codec.Encode(nil, fs)
		dec, used, err := codec.Decode(nil, enc)
		if err != nil || used != len(enc) || len(dec) != len(fs) {
			return false
		}
		for i := range fs {
			if dec[i] != fs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatsPaperColumns(t *testing.T) {
	d := mustDict(t, []byte("abcdefgh"))
	s := NewStats(d)
	s.Observe([]Factor{{0, 4}, {uint32('z'), 0}}) // covers a..d
	s.Observe([]Factor{{2, 2}})                   // covers c..d again
	if got := s.AvgFactorLen(); got != 3 {
		t.Errorf("AvgFactorLen = %v, want 3", got)
	}
	if got := s.UnusedPercent(); got != 50 {
		t.Errorf("UnusedPercent = %v, want 50", got)
	}
	// Both copy factors are shorter than 10; the literal is in no bin.
	if _, counts := s.BinnedLengthHistogram(); counts[0] != 2 || counts[1] != 0 {
		t.Errorf("binned histogram = %v, want 2 lengths in the first bin", counts)
	}
}

func TestStatsBinnedHistogram(t *testing.T) {
	d := mustDict(t, bytes.Repeat([]byte("ab"), 10000))
	s := NewStats(d)
	s.Observe([]Factor{{0, 5}, {0, 50}, {0, 500}, {0, 5000}, {0, 5}, {uint32('q'), 0}})
	_, counts := s.BinnedLengthHistogram()
	want := []int64{2, 1, 1, 1, 0, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bin %d = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	d := mustDict(t, []byte("abc"))
	s := NewStats(d)
	if s.AvgFactorLen() != 0 {
		t.Error("AvgFactorLen of empty stats should be 0")
	}
	if s.UnusedPercent() != 100 {
		t.Errorf("UnusedPercent of empty stats = %v, want 100", s.UnusedPercent())
	}
}

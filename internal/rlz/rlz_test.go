package rlz

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustDict(t *testing.T, data []byte) *Dictionary {
	t.Helper()
	d, err := NewDictionary(data)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFactorizePaperExample(t *testing.T) {
	// Section 3 of the paper: x = bbaancabb relative to d = cabbaabba
	// yields three pairs: (bbaa at offset 3, length 4) — zero-based
	// offset 2 — then the literal 'n', then (cabb at offset 1, length 4)
	// — zero-based offset 0.
	d := mustDict(t, []byte("cabbaabba"))
	factors := d.Factorize([]byte("bbaancabb"), nil)
	want := []Factor{{2, 4}, {uint32('n'), 0}, {0, 4}}
	if len(factors) != len(want) {
		t.Fatalf("factors = %v, want %v", factors, want)
	}
	for i := range want {
		if factors[i] != want[i] {
			t.Fatalf("factor %d = %v, want %v", i, factors[i], want[i])
		}
	}
	dec, err := d.Decode(nil, factors)
	if err != nil {
		t.Fatal(err)
	}
	if string(dec) != "bbaancabb" {
		t.Fatalf("decode = %q", dec)
	}
}

func TestFactorizeRoundTripQuick(t *testing.T) {
	f := func(dict, doc []byte) bool {
		if len(dict) == 0 {
			dict = []byte{0}
		}
		if len(dict) > 2000 {
			dict = dict[:2000]
		}
		if len(doc) > 2000 {
			doc = doc[:2000]
		}
		d, err := NewDictionary(dict)
		if err != nil {
			return false
		}
		factors := d.Factorize(doc, nil)
		dec, err := d.Decode(nil, factors)
		return err == nil && bytes.Equal(dec, doc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFactorsAreGreedyMaximal(t *testing.T) {
	// Each factor must be the LONGEST dictionary match at its input
	// position (the defining property in §3), which we verify against the
	// naive factorizer's lengths.
	rng := rand.New(rand.NewSource(8))
	dict := make([]byte, 500)
	for i := range dict {
		dict[i] = byte('a' + rng.Intn(4))
	}
	d := mustDict(t, dict)
	for trial := 0; trial < 50; trial++ {
		doc := make([]byte, 200)
		for i := range doc {
			doc[i] = byte('a' + rng.Intn(5)) // includes 'e' ∉ dict
		}
		got := d.Factorize(doc, nil)
		want := d.FactorizeNaive(doc)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d factors, naive %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Len != want[i].Len {
				t.Fatalf("trial %d factor %d: len %d, naive len %d", trial, i, got[i].Len, want[i].Len)
			}
			if got[i].Len == 0 && got[i].Pos != want[i].Pos {
				t.Fatalf("trial %d factor %d: literal %q vs %q", trial, i, got[i].Pos, want[i].Pos)
			}
		}
	}
}

func TestFactorizeEmptyDoc(t *testing.T) {
	d := mustDict(t, []byte("abc"))
	if factors := d.Factorize(nil, nil); len(factors) != 0 {
		t.Errorf("factors of empty doc = %v", factors)
	}
}

func TestFactorizeAllLiterals(t *testing.T) {
	d := mustDict(t, []byte("aaaa"))
	factors := d.Factorize([]byte("xyz"), nil)
	if len(factors) != 3 {
		t.Fatalf("factors = %v", factors)
	}
	for i, c := range []byte("xyz") {
		if !factors[i].IsLiteral() || factors[i].Literal() != c {
			t.Errorf("factor %d = %v, want literal %q", i, factors[i], c)
		}
	}
}

func TestFactorizeDocEqualsDictionary(t *testing.T) {
	data := []byte("the dictionary itself compresses to a single factor")
	d := mustDict(t, data)
	factors := d.Factorize(data, nil)
	if len(factors) != 1 || factors[0].Pos != 0 || int(factors[0].Len) != len(data) {
		t.Fatalf("factors = %v", factors)
	}
}

func TestFactorizeAppendsToBuffer(t *testing.T) {
	d := mustDict(t, []byte("abc"))
	buf := d.Factorize([]byte("ab"), nil)
	n := len(buf)
	buf = d.Factorize([]byte("bc"), buf)
	if len(buf) <= n {
		t.Fatal("second factorization did not append")
	}
	dec, err := d.Decode(nil, buf[n:])
	if err != nil || string(dec) != "bc" {
		t.Fatalf("decode of appended factors = %q, %v", dec, err)
	}
}

func TestDecodeRejectsBadFactors(t *testing.T) {
	d := mustDict(t, []byte("abcdef"))
	cases := []Factor{
		{Pos: 6, Len: 1},   // starts past end
		{Pos: 0, Len: 7},   // runs past end
		{Pos: 5, Len: 2},   // runs past end from inside
		{Pos: 300, Len: 0}, // literal out of byte range
	}
	for _, f := range cases {
		if _, err := d.Decode(nil, []Factor{f}); err == nil {
			t.Errorf("factor %v accepted", f)
		}
	}
}

func TestDecodedLen(t *testing.T) {
	fs := []Factor{{0, 4}, {uint32('x'), 0}, {2, 10}}
	if got := DecodedLen(fs); got != 15 {
		t.Errorf("DecodedLen = %d, want 15", got)
	}
}

func TestNewDictionaryErrors(t *testing.T) {
	if _, err := NewDictionary(nil); err == nil {
		t.Error("empty dictionary accepted")
	}
	if _, err := NewDictionaryFromParts([]byte("ab"), []int32{0}); err == nil {
		t.Error("mismatched suffix array accepted")
	}
}

func TestDictionaryVerify(t *testing.T) {
	data := []byte("verification target text")
	d := mustDict(t, data)
	d2, err := NewDictionaryFromParts(data, d.SuffixArray())
	if err != nil || !d2.Verify() {
		t.Fatalf("valid parts rejected: %v", err)
	}
	badSA := append([]int32{}, d.SuffixArray()...)
	badSA[0], badSA[1] = badSA[1], badSA[0]
	d3, err := NewDictionaryFromParts(data, badSA)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Verify() {
		t.Error("corrupt suffix array verified")
	}
}

func TestSampleEvenProperties(t *testing.T) {
	collection := make([]byte, 100000)
	for i := range collection {
		collection[i] = byte(i)
	}
	for _, dictSize := range []int{100, 1000, 9999} {
		for _, sampleSize := range []int{16, 100, 512} {
			dict := SampleEven(collection, dictSize, sampleSize)
			if len(dict) > dictSize+sampleSize {
				t.Errorf("dict %d/%d: length %d overshoots", dictSize, sampleSize, len(dict))
			}
			if len(dict) < dictSize-sampleSize {
				t.Errorf("dict %d/%d: length %d undershoots", dictSize, sampleSize, len(dict))
			}
			// Every sampled byte must come from the collection; with this
			// synthetic pattern each sample is a contiguous run.
			for i := 1; i < len(dict); i++ {
				if dict[i] != dict[i-1]+1 && i%sampleSize != 0 {
					// allowed only at sample joins
					if (i % sampleSize) != 0 {
						t.Fatalf("dict %d/%d: discontinuity inside a sample at %d", dictSize, sampleSize, i)
					}
				}
			}
		}
	}
}

func TestSampleEvenCoversWholeCollection(t *testing.T) {
	// Samples must be spread across the collection, not clustered at the
	// head: the last sample must start in the final stride.
	n := 1 << 20
	collection := make([]byte, n)
	for i := range collection {
		collection[i] = byte(i / (n / 256))
	}
	dict := SampleEven(collection, 1<<16, 1024)
	// The final 1 KB of the dictionary should carry high byte values from
	// the collection's tail (values near 255), not zeros from the head.
	tail := dict[len(dict)-512:]
	var mx byte
	for _, b := range tail {
		if b > mx {
			mx = b
		}
	}
	if mx < 200 {
		t.Errorf("dictionary tail max byte %d; sampling is not spread across the collection", mx)
	}
}

func TestSampleEvenWholeCollectionWhenDictLarge(t *testing.T) {
	collection := []byte("tiny collection")
	dict := SampleEven(collection, 1<<20, 1024)
	if !bytes.Equal(dict, collection) {
		t.Errorf("dict = %q", dict)
	}
	// And the copy must be independent of the caller's slice.
	dict[0] = 'X'
	if collection[0] == 'X' {
		t.Error("SampleEven aliased the collection")
	}
}

func TestSamplePrefix(t *testing.T) {
	n := 100000
	collection := make([]byte, n)
	for i := range collection {
		if i < n/2 {
			collection[i] = 'A'
		} else {
			collection[i] = 'B'
		}
	}
	dict := SamplePrefix(collection, n/2, 4096, 256)
	for i, b := range dict {
		if b != 'A' {
			t.Fatalf("prefix dictionary contains %q at %d", b, i)
		}
	}
	full := SamplePrefix(collection, 2*n, 4096, 256) // clamps to n
	seenB := false
	for _, b := range full {
		if b == 'B' {
			seenB = true
			break
		}
	}
	if !seenB {
		t.Error("full-prefix sampling never reached the tail")
	}
}

func TestSampleDegenerateInputs(t *testing.T) {
	if SampleEven(nil, 100, 10) != nil {
		t.Error("sampling empty collection should return nil")
	}
	if SampleEven([]byte("x"), 0, 10) != nil {
		t.Error("zero dict size should return nil")
	}
	if got := SampleEven([]byte("abcdef"), 4, 0); len(got) == 0 {
		t.Error("zero sample size should fall back to a default, not fail")
	}
	if got := SampleEven(bytes.Repeat([]byte("ab"), 500), 10, 100); len(got) == 0 {
		t.Error("sampleSize > dictSize should clamp, not fail")
	}
}

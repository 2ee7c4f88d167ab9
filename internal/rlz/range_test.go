package rlz

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecodeRangeMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	dictData := make([]byte, 600)
	for i := range dictData {
		dictData[i] = byte('a' + rng.Intn(4))
	}
	d := mustDict(t, dictData)
	doc := make([]byte, 900)
	for i := range doc {
		doc[i] = byte('a' + rng.Intn(5)) // includes literals
	}
	factors := d.Factorize(doc, nil)
	full, err := d.Decode(nil, factors)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, doc) {
		t.Fatal("full decode mismatch")
	}
	for trial := 0; trial < 300; trial++ {
		from := rng.Intn(len(doc) + 10)
		to := from + rng.Intn(len(doc))
		got, err := d.DecodeRange(nil, factors, from, to)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := from, to
		if hi > len(doc) {
			hi = len(doc)
		}
		if lo > len(doc) {
			lo = len(doc)
		}
		if !bytes.Equal(got, doc[lo:hi]) {
			t.Fatalf("range [%d,%d): got %d bytes, want %d", from, to, len(got), hi-lo)
		}
	}
}

func TestDecodeRangeEdges(t *testing.T) {
	d := mustDict(t, []byte("hello world"))
	factors := d.Factorize([]byte("hello world hello"), nil)

	if got, err := d.DecodeRange(nil, factors, 0, 0); err != nil || len(got) != 0 {
		t.Errorf("empty range: %q, %v", got, err)
	}
	if got, err := d.DecodeRange(nil, factors, 5, 3); err != nil || len(got) != 0 {
		t.Errorf("reversed range: %q, %v", got, err)
	}
	if got, err := d.DecodeRange(nil, factors, -5, 5); err != nil || string(got) != "hello" {
		t.Errorf("negative from: %q, %v", got, err)
	}
	if got, err := d.DecodeRange(nil, factors, 12, 1000); err != nil || string(got) != "hello" {
		t.Errorf("over-long to: %q, %v", got, err)
	}
}

func TestDecodeRangeRejectsBadFactors(t *testing.T) {
	d := mustDict(t, []byte("abc"))
	if _, err := d.DecodeRange(nil, []Factor{{Pos: 9, Len: 5}}, 0, 10); err == nil {
		t.Error("bad factor accepted")
	}
	if _, err := d.DecodeRange(nil, []Factor{{Pos: 999, Len: 0}}, 0, 10); err == nil {
		t.Error("bad literal accepted")
	}
}

func TestDecodeRangeQuick(t *testing.T) {
	d := mustDict(t, []byte("the quick brown fox jumps over the lazy dog"))
	f := func(doc []byte, from, to uint16) bool {
		if len(doc) > 500 {
			doc = doc[:500]
		}
		factors := d.Factorize(doc, nil)
		got, err := d.DecodeRange(nil, factors, int(from), int(to))
		if err != nil {
			return false
		}
		lo, hi := int(from), int(to)
		if hi > len(doc) {
			hi = len(doc)
		}
		if lo >= hi {
			return len(got) == 0
		}
		return bytes.Equal(got, doc[lo:hi])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeRecordRange is the known-answer case for the range decode the
// store serves GetRange with: a window in the middle of an encoded record.
func TestDecodeRecordRange(t *testing.T) {
	d := mustDict(t, []byte("abcdefghij klmnop qrstuv"))
	doc := []byte("abcdefghij qrstuv abcdef!")
	rec := CodecUV.Encode(nil, d.Factorize(doc, nil))
	got, used, err := d.DecodeRecordRange(nil, CodecUV, rec, 11, 17)
	if err != nil || string(got) != "qrstuv" || used != len(rec) {
		t.Fatalf("range = %q, used %d of %d, %v", got, used, len(rec), err)
	}
}

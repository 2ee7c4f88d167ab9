package store

import (
	"bytes"
	"testing"

	"rlz/internal/coding"
	"rlz/internal/corpus"
	"rlz/internal/rlz"
)

// TestPVByteFlipsAllRejected flips each byte of every record of a seeded
// PV segment, one at a time, in two ways (its lowest bit, and all eight),
// and reads the document back: every read must fail. The segment holds
// records of both position forms, packed and zlib, so neither the packed
// stream nor the length stream behind it is left to Adler-32 or to luck.
// The record's CRC32-C covers its count and both streams and catches any
// burst of up to 32 bits in them; a flip in a count or a stream length
// makes the reader take its CRC from other bytes, which must fail too.
func TestPVByteFlipsAllRejected(t *testing.T) {
	// The static-cold benchmark's shape: a 1 % dictionary of a 32 MiB Gov
	// corpus, under which most records pack and some keep zlib.
	c := corpus.Generate(corpus.Gov, 32<<20, 3)
	var docs [][]byte
	for _, d := range c.Docs[:24] {
		docs = append(docs, d.Body)
	}
	docs = append(docs, nil) // an empty document: a count and a CRC
	var buf bytes.Buffer
	w, err := NewWriter(&buf, rlz.SampleEven(c.Bytes(), 32<<20/100, 1024), rlz.CodecPV)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := w.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	arc := buf.Bytes()
	r, err := OpenBytes(arc) // reads the record bytes from arc on every Get
	if err != nil {
		t.Fatal(err)
	}
	tags := map[bool]int{} // packed or not: records
	flips := 0
	for id, doc := range docs {
		off, n, err := r.Extent(id)
		if err != nil {
			t.Fatal(err)
		}
		rec := arc[off : off+n]
		if k, m, _ := coding.Uvarint32(rec); k > 0 {
			_, l, _ := coding.Uvarint32(rec[m:])
			tags[rec[m+l] != 0]++
		}
		if got, err := r.Get(id); err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("document %d before any flip: %v", id, err)
		}
		for i := range rec {
			for _, mask := range []byte{0x01, 0xff} {
				rec[i] ^= mask
				got, err := r.Get(id)
				rec[i] ^= mask
				flips++
				if err == nil {
					t.Fatalf("document %d: byte %d of %d flipped by %#x read back without error (%d bytes, equal: %v)",
						id, i, len(rec), mask, len(got), bytes.Equal(got, doc))
				}
			}
		}
	}
	if tags[true] == 0 || tags[false] == 0 {
		t.Fatalf("the segment should hold both position forms: %d packed records, %d zlib", tags[true], tags[false])
	}
	t.Logf("%d flips over %d records (%d packed, %d zlib, 1 empty), all rejected", flips, len(docs), tags[true], tags[false])
}

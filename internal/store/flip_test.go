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
// records of both position forms written today, packed and repeats, so
// neither a position stream nor the length stream behind it is left to
// luck; TestParentPVArchiveReads runs the same flips over zlib records.
// The record's CRC32-C covers its count and both streams and catches any
// burst of up to 32 bits in them; a flip in a count or a stream length
// makes the reader take its CRC from other bytes, which must fail too.
func TestPVByteFlipsAllRejected(t *testing.T) {
	// The static-cold benchmark's shape: a 1 % dictionary of a 32 MiB Gov
	// corpus, under which most records take repeats and some pack.
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
	forms := flipEveryRecordByte(t, buf.Bytes(), docs)
	if forms["packed"] == 0 || forms["repeats"] == 0 || forms["zlib"] != 0 {
		t.Fatalf("the segment should hold packed and repeats records and no zlib ones: %v", forms)
	}
}

// flipEveryRecordByte flips each byte of every record of the PV archive
// arc, which holds docs, as TestPVByteFlipsAllRejected describes, and
// returns how many of its records take each position form.
func flipEveryRecordByte(t *testing.T, arc []byte, docs [][]byte) map[string]int {
	t.Helper()
	r, err := OpenBytes(arc) // reads the record bytes from arc on every Get
	if err != nil {
		t.Fatal(err)
	}
	forms := map[string]int{}
	flips := 0
	for id, doc := range docs {
		off, n, err := r.Extent(id)
		if err != nil {
			t.Fatal(err)
		}
		rec := arc[off : off+n]
		forms[positionForm(rec)]++
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
	t.Logf("%d flips over %d records %v, all rejected", flips, len(docs), forms)
	return forms
}

// positionForm names the position form of a P record by its tag:
// "zlib" (0), "packed" (1–32), "repeats" (33), or "empty" for a record
// of no factors.
func positionForm(rec []byte) string {
	k, m, _ := coding.Uvarint32(rec)
	if k == 0 {
		return "empty"
	}
	_, l, _ := coding.Uvarint32(rec[m:])
	switch tag := rec[m+l]; {
	case tag == 0:
		return "zlib"
	case tag <= 32:
		return "packed"
	default:
		return "repeats"
	}
}

package store

import (
	"bytes"
	"testing"

	"rlz/internal/rlz"
)

func rangeArchive(t *testing.T) (*Reader, [][]byte) {
	t.Helper()
	docs := [][]byte{
		[]byte("the quick brown fox"),
		[]byte("lazy dog sleeps"),
		[]byte("the fox and the fox again"),
		[]byte("nothing to see"),
	}
	arc := buildArchive(t, docs, rlz.CodecZV)
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	return r, docs
}

func TestGetRange(t *testing.T) {
	r, docs := rangeArchive(t)
	for id, doc := range docs {
		for _, span := range [][2]int{{0, 4}, {4, 9}, {0, len(doc)}, {len(doc) - 3, len(doc) + 50}, {2, 2}} {
			got, err := r.GetRange(id, span[0], span[1])
			if err != nil {
				t.Fatalf("GetRange(%d, %d, %d): %v", id, span[0], span[1], err)
			}
			lo, hi := span[0], span[1]
			if hi > len(doc) {
				hi = len(doc)
			}
			if lo >= hi {
				if len(got) != 0 {
					t.Fatalf("empty span returned %q", got)
				}
				continue
			}
			if !bytes.Equal(got, doc[lo:hi]) {
				t.Fatalf("GetRange(%d, %d, %d) = %q, want %q", id, span[0], span[1], got, doc[lo:hi])
			}
		}
	}
	if _, err := r.GetRange(99, 0, 4); err == nil {
		t.Error("out-of-range doc accepted")
	}
}

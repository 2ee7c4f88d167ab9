package store

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"rlz/internal/container"
	"rlz/internal/corpus"
	"rlz/internal/rlz"
)

// parentPVDocs returns the dictionary and documents of
// testdata/pv-v1.rlz: four seeded Gov documents, four spliced from long
// runs of the dictionary, and an empty one.
func parentPVDocs() (dict []byte, docs [][]byte) {
	c := corpus.Generate(corpus.Gov, 64<<10, 41)
	dict = rlz.SampleEven(c.Bytes(), 4<<10, 256)
	for _, d := range c.Docs {
		docs = append(docs, d.Body)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 4; i++ {
		var doc []byte
		for j := 0; j < 40; j++ {
			p := rng.Intn(len(dict) - 64)
			doc = append(doc, dict[p:p+16+rng.Intn(48)]...)
		}
		docs = append(docs, doc)
	}
	return dict, append(docs, nil)
}

// TestParentPVArchiveReads opens testdata/pv-v1.rlz, a PV archive of
// parentPVDocs written by store.NewWriter at commit 3e62c5d, before the
// repeats form existed: header version 1, and records whose positions
// are zlib streams (the Gov documents, under a 4 KiB dictionary) or
// packed (the spliced ones). Every document must read back
// byte-identical, whole and in ranges, and every byte flip in its
// records must fail its read. The same documents written today make a
// version 2 archive with no zlib record in it, which reads back the same.
func TestParentPVArchiveReads(t *testing.T) {
	arc, err := os.ReadFile("testdata/pv-v1.rlz")
	if err != nil {
		t.Fatal(err)
	}
	dict, docs := parentPVDocs()
	if v := arc[len(container.RLZ.Magic)]; v != version {
		t.Fatalf("fixture header version %d, want %d", v, version)
	}
	readsBack(t, arc, docs)
	forms := flipEveryRecordByte(t, append([]byte{}, arc...), docs)
	if forms["zlib"] == 0 || forms["packed"] == 0 {
		t.Fatalf("the fixture should hold zlib and packed records: %v", forms)
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, dict, rlz.CodecPV)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		if _, err := w.Append(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[len(container.RLZ.Magic)]; v != versionP {
		t.Fatalf("a PV archive written today has header version %d, want %d", v, versionP)
	}
	readsBack(t, buf.Bytes(), docs)
	if forms := flipEveryRecordByte(t, buf.Bytes(), docs); forms["zlib"] != 0 || forms["repeats"] == 0 {
		t.Fatalf("the archive written today should hold repeats records and no zlib ones: %v", forms)
	}
	t.Logf("%d bytes written before repeats, %d today", len(arc), buf.Len())
}

// readsBack checks that the archive arc holds docs: each one whole and
// in ranges that start inside it, near its end and past it, through
// GetRange (for a record in repeats form, mostly inside a repeat).
func readsBack(t *testing.T, arc []byte, docs [][]byte) {
	t.Helper()
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumDocs() != len(docs) {
		t.Fatalf("%d documents, want %d", r.NumDocs(), len(docs))
	}
	for id, doc := range docs {
		for _, span := range [][2]int{{0, len(doc)}, {len(doc) / 3, len(doc) / 2}, {len(doc) - 7, len(doc) + 7}} {
			want := doc[max(span[0], 0):min(span[1], len(doc))]
			if got, err := r.GetRange(id, span[0], span[1]); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("document %d [%d,%d): %d bytes, want %d (%v)", id, span[0], span[1], len(got), len(want), err)
			}
		}
	}
}

// TestHeaderVersionByCodec checks the version each codec's archive is
// written with, and that a reader refuses any other.
func TestHeaderVersionByCodec(t *testing.T) {
	dict := []byte("<html>shared boilerplate </html>")
	for _, name := range []string{"ZV", "ZZ", "UV", "US", "ZH", "PV", "PZ", "PS", "PH"} {
		c, err := rlz.CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, dict, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append([]byte("<html>shared boilerplate two</html>")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		arc := buf.Bytes()
		want := byte(version)
		if c.Pos == rlz.PosP {
			want = versionP
		}
		if got := arc[len(container.RLZ.Magic)]; got != want {
			t.Errorf("%s: header version %d, want %d", name, got, want)
		}
		arc[len(container.RLZ.Magic)] = 3
		if _, err := OpenBytes(arc); err == nil {
			t.Errorf("%s: version 3 opened", name)
		}
	}
}

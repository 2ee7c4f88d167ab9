package rawstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rlz/internal/coding"
	"rlz/internal/container"
)

func build(t testing.TB, docs [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		id, err := w.Append(d)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("Append returned %d, want %d", id, i)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sampleDocs(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf("document %d body with some text", i))
	}
	return docs
}

func TestRoundTrip(t *testing.T) {
	docs := sampleDocs(25)
	arc := build(t, docs)
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumDocs() != len(docs) {
		t.Fatalf("NumDocs = %d", r.NumDocs())
	}
	for i, want := range docs {
		got, err := r.Get(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %q, %v", i, got, err)
		}
	}
}

func TestEmptyDocsAndEmptyArchive(t *testing.T) {
	arc := build(t, nil)
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumDocs() != 0 {
		t.Fatalf("NumDocs = %d", r.NumDocs())
	}
	docs := [][]byte{{}, []byte("a"), {}}
	arc = build(t, docs)
	r, err = OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range docs {
		got, err := r.Get(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %q, %v", i, got, err)
		}
	}
}

func TestExtentMatchesContent(t *testing.T) {
	docs := sampleDocs(10)
	arc := build(t, docs)
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range docs {
		off, n, err := r.Extent(i)
		if err != nil {
			t.Fatal(err)
		}
		if int(n) != len(want) {
			t.Fatalf("Extent(%d) length %d, want %d", i, n, len(want))
		}
		if !bytes.Equal(arc[off:off+n], want) {
			t.Fatalf("Extent(%d) does not point at document bytes", i)
		}
	}
}

func TestStorageOverheadIsSmall(t *testing.T) {
	docs := sampleDocs(1000)
	total := 0
	for _, d := range docs {
		total += len(d)
	}
	arc := build(t, docs)
	overhead := len(arc) - total
	if overhead > (frameSize+2)*len(docs)+64 {
		t.Errorf("overhead %d bytes for %d docs", overhead, len(docs))
	}
}

func TestFileRoundTrip(t *testing.T) {
	docs := sampleDocs(5)
	arc := build(t, docs)
	path := filepath.Join(t.TempDir(), "test.raw")
	if err := os.WriteFile(path, arc, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := Open(f, int64(len(arc)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(2)
	if err != nil || !bytes.Equal(got, docs[2]) {
		t.Fatalf("Get(2) = %q, %v", got, err)
	}
}

func TestCorruptionRejected(t *testing.T) {
	arc := build(t, sampleDocs(5))
	// One document of 2^64−8 bytes plus its 8-byte frame sums, in int64,
	// to the empty payload; its read would size a buffer of −8 bytes.
	huge := coding.PutUvarint64(container.Raw.AppendHeader(nil, version), 1)
	huge = coding.PutUvarint64(huge, math.MaxUint64-7)
	huge = container.Raw.AppendFooter(huge, headerSize)
	if _, err := OpenBytes(huge); !errors.Is(err, ErrCorruptArchive) {
		t.Errorf("map of 2^64-8 bytes over an empty payload: %v", err)
	}
	for i := 0; i < len(arc); i += 7 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation to %d: %v", i, r)
				}
			}()
			OpenBytes(arc[:i])
		}()
	}
}

func TestGetOutOfRange(t *testing.T) {
	arc := build(t, sampleDocs(3))
	r, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 3} {
		if _, err := r.Get(id); err == nil {
			t.Errorf("Get(%d) accepted", id)
		}
	}
}

func TestAppendAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("late")); err == nil {
		t.Error("Append after Close accepted")
	}
}

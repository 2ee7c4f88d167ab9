package mmapio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestMapRoundTrip(t *testing.T) {
	if !Supported() {
		t.Skip("mmap unsupported on this platform")
	}
	data := bytes.Repeat([]byte("0123456789"), 1000)
	f := writeTemp(t, data)
	m, err := Map(f, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Len() != int64(len(data)) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(data))
	}
	if whole, err := m.Slice(0, m.Len()); err != nil || !bytes.Equal(whole, data) {
		t.Fatalf("whole-mapping Slice mismatch (err %v)", err)
	}
	s, err := m.Slice(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s, data[10:30]) {
		t.Fatal("Slice mismatch")
	}
	// The sub-slice must not allow appends to scribble on the mapping.
	if cap(s) != 20 {
		t.Errorf("Slice cap = %d, want 20 (three-index slice)", cap(s))
	}
}

func TestMapOutlivesFile(t *testing.T) {
	if !Supported() {
		t.Skip("mmap unsupported on this platform")
	}
	data := []byte("survives the close")
	path := filepath.Join(t.TempDir(), "data")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(f, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	f.Close()
	if whole, err := m.Slice(0, m.Len()); err != nil || !bytes.Equal(whole, data) {
		t.Fatalf("mapping invalid after file close (err %v)", err)
	}
}

func TestSliceBounds(t *testing.T) {
	if !Supported() {
		t.Skip("mmap unsupported on this platform")
	}
	f := writeTemp(t, []byte("0123456789"))
	m, err := Map(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, c := range []struct{ off, n int64 }{{-1, 1}, {0, -1}, {5, 6}, {11, 0}, {1 << 40, 1}} {
		if _, err := m.Slice(c.off, c.n); err == nil {
			t.Errorf("Slice(%d, %d) accepted", c.off, c.n)
		}
	}
	if s, err := m.Slice(10, 0); err != nil || len(s) != 0 {
		t.Errorf("Slice(10, 0) = %v, %v; want empty", s, err)
	}
}

func TestReadAt(t *testing.T) {
	if !Supported() {
		t.Skip("mmap unsupported on this platform")
	}
	data := []byte("abcdefghij")
	f := writeTemp(t, data)
	m, err := Map(f, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	buf := make([]byte, 4)
	if n, err := m.ReadAt(buf, 3); n != 4 || err != nil {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if string(buf) != "defg" {
		t.Fatalf("ReadAt bytes = %q", buf)
	}
	// Short read at the tail returns io.EOF with the bytes read.
	if n, err := m.ReadAt(buf, 8); n != 2 || err != io.EOF {
		t.Fatalf("tail ReadAt = %d, %v; want 2, EOF", n, err)
	}
	if n, err := m.ReadAt(buf, 10); n != 0 || err != io.EOF {
		t.Fatalf("past-end ReadAt = %d, %v; want 0, EOF", n, err)
	}
	if _, err := m.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestEmptyFile(t *testing.T) {
	f := writeTemp(t, nil)
	m, err := Map(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, err := m.Slice(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("double Close errored:", err)
	}
}

//go:build unix

package rawstore

import (
	"bytes"
	"math"
	"strconv"
	"syscall"
	"testing"
)

// A frame's length field is 32 bits; a longer document is refused, not
// stored under its length modulo 2^32.
func TestAppendRefusesOversizedDocument(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("no slice is that long on this platform")
	}
	// Address space only: the refusal must come before any byte is read.
	tooLong := uint64(math.MaxUint32) + 1
	huge, err := syscall.Mmap(-1, 0, int(tooLong), syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("cannot reserve 4 GiB of address space: %v", err)
	}
	defer syscall.Munmap(huge)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(huge); err == nil {
		t.Fatal("Append accepted a document longer than its length field")
	}
	if w.NumDocs() != 0 || buf.Len() != headerSize {
		t.Fatalf("refused append left %d documents, %d bytes", w.NumDocs(), buf.Len())
	}
	if id, err := w.Append([]byte("fits")); err != nil || id != 0 {
		t.Fatalf("append after the refusal = (%d, %v)", id, err)
	}
}

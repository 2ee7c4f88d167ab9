package rawstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"rlz/internal/container"
)

// memFile is an in-memory File.
type memFile struct {
	b   []byte
	pos int64
}

func (f *memFile) Write(p []byte) (int, error) {
	f.b = append(f.b[:f.pos], p...) // Recover only ever writes at the end
	f.pos += int64(len(p))
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(f.b).ReadAt(p, off)
}

func (f *memFile) Seek(off int64, whence int) (int64, error) {
	if whence == io.SeekEnd {
		off += int64(len(f.b))
	}
	f.pos = off
	return off, nil
}

func (f *memFile) Truncate(size int64) error { f.b = f.b[:size]; return nil }
func (f *memFile) Sync() error               { return nil }

// inProgress returns the bytes of an archive holding docs whose writer
// has not closed it.
func inProgress(t testing.TB, docs ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := w.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// wholeFrames is the reference Recover is held to: the documents of the
// leading frames of payload that are complete and match their checksum.
func wholeFrames(payload []byte) (docs [][]byte) {
	for len(payload) >= frameSize {
		n := uint64(binary.LittleEndian.Uint32(payload))
		if n > uint64(len(payload)-frameSize) ||
			crc32.Checksum(append(payload[:4:4], payload[frameSize:frameSize+n]...), castagnoli) != binary.LittleEndian.Uint32(payload[4:]) {
			break
		}
		docs = append(docs, payload[frameSize:frameSize+n])
		payload = payload[frameSize+n:]
	}
	return docs
}

// FuzzRecover feeds Recover arbitrary bytes behind a valid header: it
// keeps exactly the reference's documents, each inside the input where
// Extent says, truncates to them, and an append after it survives a
// second recovery.
func FuzzRecover(f *testing.F) {
	long := bytes.Repeat([]byte("a document longer than the scan buffer "), 10000)
	whole := inProgress(f, []byte("one"), nil, long, []byte("four"))[headerSize:]
	sealed := build(f, [][]byte{[]byte("one"), nil, []byte("three")})[headerSize:]
	damaged := bytes.Clone(whole)
	damaged[2*frameSize+3+frameSize+1000] ^= 0x04 // inside long; "four" behind it is intact
	f.Add([]byte(nil))
	f.Add(whole)
	f.Add(whole[:len(whole)-1])                            // torn document
	f.Add(whole[:len(whole)-4-frameSize-1])                // torn long document
	f.Add(whole[:frameSize+3+2])                           // torn frame header
	f.Add(damaged)                                         // valid frame after a damaged one
	f.Add(sealed)                                          // footer of a seal that never counted
	f.Add(sealed[:len(sealed)-5])                          // torn footer
	f.Add(append(bytes.Clone(whole), make([]byte, 64)...)) // zeros are not empty documents
	f.Fuzz(func(t *testing.T, payload []byte) {
		want := wholeFrames(payload)
		check := func(file *memFile, want [][]byte) *Writer {
			w, err := Recover(file)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if w.NumDocs() != len(want) || w.Size() != int64(len(file.b)) {
				t.Fatalf("kept %d documents in %d bytes of a %d-byte file, want %d documents",
					w.NumDocs(), w.Size(), len(file.b), len(want))
			}
			for i, doc := range want {
				off, n, err := w.Extent(i)
				if err != nil || off+n > int64(len(file.b)) || !bytes.Equal(file.b[off:off+n], doc) {
					t.Fatalf("document %d not at its extent [%d,+%d): %v", i, off, n, err)
				}
			}
			return w
		}
		file := &memFile{b: append(container.Raw.AppendHeader(nil, version), payload...)}
		w := check(file, want)
		if len(file.b) > headerSize+len(payload) {
			t.Fatalf("recovery grew the file to %d bytes", len(file.b))
		}
		if _, err := w.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		check(file, append(want, []byte("appended")))
	})
}

// Recover leaves alone what it cannot resume, and restarts a file whose
// header is gone.
func TestRecoverHeader(t *testing.T) {
	for file, want := range map[string]error{
		"RAWS\x01helloworld!":         ErrVersion1,
		"RLZA\x02 some other archive": ErrCorruptArchive,
	} {
		f := &memFile{b: []byte(file)}
		if _, err := Recover(f); !errors.Is(err, want) || string(f.b) != file {
			t.Fatalf("Recover(%q) = %v, file now %q", file, err, f.b)
		}
	}
	f := &memFile{b: []byte("RA")}
	w, err := Recover(f)
	if err != nil || w.NumDocs() != 0 || !bytes.Equal(f.b, inProgress(t)) {
		t.Fatalf("Recover of a 2-byte file = %v, file now %q", err, f.b)
	}
}

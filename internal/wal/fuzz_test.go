package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALOpen feeds Open arbitrary bytes as a log image. Open must not
// panic, must not hand back more document bytes than the image holds
// (a hostile length field allocates nothing), must return only frames
// that verify under the image's own header — walked again here, frame by
// frame from the header — and must leave a log that works: one append
// after it comes back, after the same records, from a second Open.
func FuzzWALOpen(f *testing.F) {
	v2 := func(salt uint32) []byte {
		return binary.LittleEndian.AppendUint32(append(headerMagic[:], walVersion, 0), salt)
	}
	v1 := append(headerMagic[:], 1, 0)
	f.Add([]byte{})
	f.Add(v2(7))
	f.Add(v1)
	f.Add(frame(frame(v1, 0, 0, []byte("a")), 0, 1, []byte("bb")))
	whole := frame(frame(v2(7), 7, 5, []byte("alpha")), 7, 6, []byte("beta"))
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                                                      // torn frame
	f.Add(frame(append(whole, make([]byte, 64)...), 7, 7, []byte("past zero fill"))) // unreachable
	f.Add(frame(frame(v2(9), 9, 5, []byte("new")), 7, 6, []byte("stale cycle")))
	f.Add(append(v2(7), 0, 0, 0, 0x40, 1, 2, 3, 4)) // 1 GiB length field
	f.Add([]byte("RLZWAL\x03\x00 unknown version"))
	f.Fuzz(func(t *testing.T, image []byte) {
		path := filepath.Join(t.TempDir(), FileName)
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path, Options{})
		if err != nil {
			return // a header Open does not know
		}
		off, salt, total := 0, uint32(0), 0
		if len(recs) > 0 {
			off = v1HeaderSize
			if image[6] == walVersion {
				off, salt = headerSize, binary.LittleEndian.Uint32(image[8:])
			}
		}
		for i, r := range recs {
			n := int(binary.LittleEndian.Uint32(image[off:]))
			payload := image[off+frameHeader : off+frameHeader+n]
			seq, sn := binary.Uvarint(payload)
			if crc32.Update(salt, castagnoli, payload) != binary.LittleEndian.Uint32(image[off+4:]) ||
				sn <= 0 || seq != r.Seq || !bytes.Equal(payload[sn:], r.Doc) {
				t.Fatalf("record %d (seq %d, %d bytes) is not the frame at offset %d", i, r.Seq, len(r.Doc), off)
			}
			off += frameHeader + n
			total += len(r.Doc)
		}
		if total > len(image) {
			t.Fatalf("%d document bytes out of a %d-byte image", total, len(image))
		}
		wait, err := l.Enqueue(1<<40, []byte("probe"))
		if err == nil {
			err = wait()
		}
		if err != nil {
			t.Fatalf("append after open: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, recs2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer func() { _ = l2.Close() }()
		if len(recs2) != len(recs)+1 || !sameRecords(recs2[:len(recs)], recs) ||
			recs2[len(recs)].Seq != 1<<40 || string(recs2[len(recs)].Doc) != "probe" {
			t.Fatalf("second open returned %d records after %d and one append", len(recs2), len(recs))
		}
	})
}

package docmap

import (
	"bytes"
	"math"
	"testing"

	"rlz/internal/coding"
)

// FuzzDocmapUnmarshal throws arbitrary bytes at the docmap parser: no
// input may panic or allocate beyond the plausibility bound, and any map
// that parses must lie within [0, Total()] extent by extent and survive
// a marshal/unmarshal round trip unchanged. Seeded with valid maps and
// the corrupt-footer corpus from the regression tests.
func FuzzDocmapUnmarshal(f *testing.F) {
	small := New()
	for _, n := range []uint64{0, 1, 127, 128, 1 << 20} {
		small.Append(n)
	}
	f.Add(small.Marshal(nil))
	f.Add(New().Marshal(nil))
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x01, 0x01})                                             // count > remaining bytes
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})   // huge count, no data
	f.Add(append(coding.PutUvarint64(nil, 200), make([]byte, 198)...))          // count == len(src)
	f.Add(append(small.Marshal(nil), 0xAB, 0xCD))                               // trailing data
	f.Add(append(coding.PutUvarint64(nil, 2), 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 1)) // multi-byte deltas
	wrapped := coding.PutUvarint64(coding.PutUvarint64(nil, 2), math.MaxUint64-4)
	f.Add(coding.PutUvarint64(wrapped, 5)) // offsets wrap back to 0

	f.Fuzz(func(t *testing.T, data []byte) {
		m, used, err := Unmarshal(data)
		if err != nil {
			return
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		for i := 0; i < m.Len(); i++ {
			if off, n, err := m.Extent(i); err != nil || off > m.Total() || n > m.Total()-off {
				t.Fatalf("extent %d [%d,+%d) outside [0,%d]: %v", i, off, n, m.Total(), err)
			}
		}
		enc := m.Marshal(nil)
		m2, used2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if used2 != len(enc) || m2.Len() != m.Len() || m2.Total() != m.Total() {
			t.Fatalf("round trip changed the map: len %d/%d, total %d/%d, used %d/%d",
				m.Len(), m2.Len(), m.Total(), m2.Total(), used2, len(enc))
		}
		for i := 0; i < m.Len(); i++ {
			o1, n1, err1 := m.Extent(i)
			o2, n2, err2 := m2.Extent(i)
			if err1 != nil || err2 != nil || o1 != o2 || n1 != n2 {
				t.Fatalf("extent %d changed across round trip", i)
			}
		}
		if !bytes.Equal(enc, m2.Marshal(nil)) {
			t.Fatal("re-marshal is not canonical")
		}
	})
}

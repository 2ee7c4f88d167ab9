package docmap

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rlz/internal/coding"
)

func TestAppendAndExtent(t *testing.T) {
	m := New()
	sizes := []uint64{10, 0, 7, 1000}
	for i, s := range sizes {
		if id := m.Append(s); id != i {
			t.Fatalf("Append #%d returned id %d", i, id)
		}
	}
	if m.Len() != len(sizes) {
		t.Fatalf("Len = %d", m.Len())
	}
	wantOff := uint64(0)
	for i, s := range sizes {
		off, n, err := m.Extent(i)
		if err != nil {
			t.Fatal(err)
		}
		if off != wantOff || n != s {
			t.Errorf("Extent(%d) = (%d, %d), want (%d, %d)", i, off, n, wantOff, s)
		}
		wantOff += s
	}
	if m.Total() != wantOff {
		t.Errorf("Total = %d, want %d", m.Total(), wantOff)
	}
}

func TestExtentOutOfRange(t *testing.T) {
	m := New()
	m.Append(5)
	for _, id := range []int{-1, 1, 100} {
		if _, _, err := m.Extent(id); err == nil {
			t.Errorf("Extent(%d) accepted", id)
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m Map
	if m.Len() != 0 || m.Total() != 0 {
		t.Fatal("zero value not empty")
	}
	m.Append(3)
	if off, n, err := m.Extent(0); err != nil || off != 0 || n != 3 {
		t.Fatalf("Extent after zero-value Append = (%d,%d,%v)", off, n, err)
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(sizes []uint32) bool {
		m := New()
		for _, s := range sizes {
			m.Append(uint64(s))
		}
		enc := m.Marshal(nil)
		dec, used, err := Unmarshal(enc)
		if err != nil || used != len(enc) || dec.Len() != m.Len() {
			return false
		}
		for i := 0; i < m.Len(); i++ {
			o1, n1, _ := m.Extent(i)
			o2, n2, _ := dec.Extent(i)
			if o1 != o2 || n1 != n2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		m.Append(uint64(rng.Intn(10000)))
	}
	enc := m.Marshal(nil)
	for i := 0; i < len(enc)-1; i += 7 {
		if _, _, err := Unmarshal(enc[:i]); err == nil {
			t.Fatalf("truncation to %d accepted", i)
		}
	}
	if _, _, err := Unmarshal(nil); err == nil {
		t.Error("nil input accepted")
	}
	// A huge declared count with no data must be rejected up front.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	if _, _, err := Unmarshal(bad); err == nil {
		t.Error("implausible count accepted")
	}
}

// TestUnmarshalCountVsRemainingBytes is the regression test for the
// plausibility check comparing against len(src) instead of the bytes
// remaining after the count header: a footer declaring count == len(src)
// slipped past the old check into the preallocation, even though the
// deltas can never fit behind the header. The check must reject such
// input up front (before allocating), not fail later mid-decode.
func TestUnmarshalCountVsRemainingBytes(t *testing.T) {
	// count = 3 == len(src), but only 2 delta bytes remain after the
	// 1-byte header.
	bad := []byte{0x03, 0x01, 0x01}
	_, _, err := Unmarshal(bad)
	if err == nil {
		t.Fatal("count == len(src) accepted")
	}
	if !strings.Contains(err.Error(), "implausible") {
		t.Errorf("rejected mid-decode (%v), want the up-front implausible-count check", err)
	}

	// Multi-byte header: count = 200 behind a 2-byte header in exactly
	// 200 bytes of input — count == len(src) slipped past the old check,
	// but only 198 delta bytes remain.
	bad = append(coding.PutUvarint64(nil, 200), make([]byte, 198)...)
	if len(bad) != 200 {
		t.Fatalf("test input is %d bytes, want 200", len(bad))
	}
	if _, _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("oversized count past a 2-byte header: %v, want implausible-count", err)
	}

	// The boundary case stays accepted: count deltas of exactly 1 byte.
	good := coding.PutUvarint64(nil, 4)
	good = append(good, 1, 2, 3, 4)
	m, used, err := Unmarshal(good)
	if err != nil || used != len(good) || m.Len() != 4 || m.Total() != 10 {
		t.Errorf("exact-fit map rejected: %v (len %d, total %d)", err, m.Len(), m.Total())
	}
}

// A map whose running offset wraps uint64 must be rejected, even when it
// wraps back to a plausible total: its first document would span
// 2^64−5 bytes. The largest offset that does not wrap is accepted.
func TestUnmarshalRejectsWrappingOffset(t *testing.T) {
	wrapped := coding.PutUvarint64(nil, 3)
	wrapped = coding.PutUvarint64(wrapped, math.MaxUint64-4)
	wrapped = coding.PutUvarint64(wrapped, 100+5)
	wrapped = coding.PutUvarint64(wrapped, 0)
	if m, _, err := Unmarshal(wrapped); err == nil {
		_, n, _ := m.Extent(0)
		t.Fatalf("wrapping map accepted: total %d, document 0 of %d bytes", m.Total(), n)
	}
	edge := coding.PutUvarint64(nil, 2)
	edge = coding.PutUvarint64(edge, math.MaxUint64-4)
	edge = coding.PutUvarint64(edge, 4)
	if m, _, err := Unmarshal(edge); err != nil || m.Total() != math.MaxUint64 {
		t.Fatalf("map ending at 2^64-1 rejected: %v", err)
	}
}

func TestMarshalTrailingDataIgnored(t *testing.T) {
	m := New()
	m.Append(4)
	enc := m.Marshal(nil)
	enc = append(enc, 0xAB, 0xCD)
	dec, used, err := Unmarshal(enc)
	if err != nil || dec.Len() != 1 {
		t.Fatalf("decode with trailing data: %v", err)
	}
	if used != len(enc)-2 {
		t.Errorf("used = %d, want %d", used, len(enc)-2)
	}
}

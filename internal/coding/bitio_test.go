package coding

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterSingleBits(t *testing.T) {
	var w BitWriter
	for _, b := range []uint{1, 0, 1, 1, 0, 0, 1, 0, 1} { // 9 bits: 0xB2, then 1 + padding
		w.WriteBits(uint64(b), 1)
	}
	got := w.Bytes()
	want := []byte{0xB2, 0x80}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("bytes = %x, want %x", got, want)
	}
}

func TestBitRoundTripQuick(t *testing.T) {
	f := func(vals []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		widths := make([]uint, len(vals))
		var w BitWriter
		for i, v := range vals {
			widths[i] = uint(rng.Intn(16)) + 1
			w.WriteBits(uint64(v)&(1<<widths[i]-1), widths[i])
		}
		r := NewBitReader(w.Bytes())
		for i, v := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != uint64(v)&(1<<widths[i]-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitReaderPastEnd(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err != ErrShortBuffer {
		t.Errorf("err = %v, want ErrShortBuffer", err)
	}
}

func TestBitReaderPeekSkip(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b1010, 4)
	w.WriteBits(0b11, 2)
	r := NewBitReader(w.Bytes())

	v, avail := r.Peek(4)
	if v != 0b1010 || avail != 4 {
		t.Fatalf("Peek(4) = %b avail %d", v, avail)
	}
	// Peeking does not consume.
	v2, _ := r.Peek(4)
	if v2 != v {
		t.Fatalf("second Peek = %b", v2)
	}
	if err := r.Skip(4); err != nil {
		t.Fatal(err)
	}
	v, _ = r.Peek(2)
	if v != 0b11 {
		t.Fatalf("after skip Peek(2) = %b", v)
	}
}

func TestBitReaderPeekTail(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b101, 3)
	r := NewBitReader(w.Bytes()) // one byte: 1010_0000
	if err := r.Skip(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	// Stream exhausted: Peek must left-pad and report zero available.
	v, avail := r.Peek(4)
	if avail != 0 || v != 0 {
		t.Errorf("tail Peek = %b avail %d", v, avail)
	}
	if err := r.Skip(1); err != ErrShortBuffer {
		t.Errorf("Skip past end: err = %v", err)
	}
}

func TestBitWriterAppendsToExisting(t *testing.T) {
	buf := []byte{0xAA}
	w := NewBitWriter(buf)
	w.WriteBits(0xFF, 8)
	got := w.Bytes()
	if len(got) != 2 || got[0] != 0xAA || got[1] != 0xFF {
		t.Errorf("bytes = %x", got)
	}
}

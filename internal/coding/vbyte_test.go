package coding

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPutUvarint32Boundaries(t *testing.T) {
	cases := []struct {
		v    uint32
		want int // encoded length
	}{
		{0, 1}, {1, 1}, {127, 1},
		{128, 2}, {16383, 2},
		{16384, 3}, {2097151, 3},
		{2097152, 4}, {268435455, 4},
		{268435456, 5}, {math.MaxUint32, 5},
	}
	for _, c := range cases {
		enc := PutUvarint32(nil, c.v)
		if len(enc) != c.want {
			t.Errorf("PutUvarint32(%d) length = %d, want %d", c.v, len(enc), c.want)
		}
		dec, n, err := Uvarint32(enc)
		if err != nil {
			t.Fatalf("Uvarint32(%d): %v", c.v, err)
		}
		if dec != c.v || n != c.want {
			t.Errorf("Uvarint32 round trip of %d: got %d (%d bytes)", c.v, dec, n)
		}
	}
}

func TestUvarint32RoundTripQuick(t *testing.T) {
	f := func(v uint32) bool {
		enc := PutUvarint32(nil, v)
		dec, n, err := Uvarint32(enc)
		return err == nil && dec == v && n == len(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarint64RoundTripQuick(t *testing.T) {
	f := func(v uint64) bool {
		enc := PutUvarint64(nil, v)
		dec, n, err := Uvarint64(enc)
		return err == nil && dec == v && n == len(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarint32ShortBuffer(t *testing.T) {
	enc := PutUvarint32(nil, 300)
	for i := 0; i < len(enc); i++ {
		if _, _, err := Uvarint32(enc[:i]); err != ErrShortBuffer {
			t.Errorf("Uvarint32 with %d bytes: err = %v, want ErrShortBuffer", i, err)
		}
	}
}

func TestUvarint32Overflow(t *testing.T) {
	// Six continuation bytes can never terminate within 32 bits.
	src := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	if _, _, err := Uvarint32(src); err != ErrOverflow {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
	// A 5-byte codeword whose final byte pushes past 2^32.
	src = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x10}
	if _, _, err := Uvarint32(src); err != ErrOverflow {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
	// The largest legal final byte still decodes.
	src = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	v, _, err := Uvarint32(src)
	if err != nil || v != math.MaxUint32 {
		t.Errorf("max decode = %d, %v; want %d, nil", v, err, uint32(math.MaxUint32))
	}
}

func TestUvarint64Overflow(t *testing.T) {
	src := bytes.Repeat([]byte{0xFF}, 11)
	if _, _, err := Uvarint64(src); err != ErrOverflow {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
	src = append(bytes.Repeat([]byte{0xFF}, 9), 0x02)
	if _, _, err := Uvarint64(src); err != ErrOverflow {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
	src = append(bytes.Repeat([]byte{0xFF}, 9), 0x01)
	v, _, err := Uvarint64(src)
	if err != nil || v != math.MaxUint64 {
		t.Errorf("max decode = %d, %v", v, err)
	}
}

func TestU32RoundTrip(t *testing.T) {
	for _, v := range []uint32{0, 1, 0xDEADBEEF, math.MaxUint32} {
		enc := PutU32(nil, v)
		if len(enc) != 4 {
			t.Fatalf("PutU32 length = %d", len(enc))
		}
		dec, err := U32(enc)
		if err != nil || dec != v {
			t.Errorf("U32 round trip of %#x: got %#x, %v", v, dec, err)
		}
	}
	if _, err := U32([]byte{1, 2, 3}); err != ErrShortBuffer {
		t.Errorf("short U32: err = %v", err)
	}
}

func TestU64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xDEADBEEFCAFEF00D, math.MaxUint64} {
		enc := PutU64(nil, v)
		dec, err := U64(enc)
		if err != nil || dec != v {
			t.Errorf("U64 round trip of %#x: got %#x, %v", v, dec, err)
		}
	}
	if _, err := U64(make([]byte, 7)); err != ErrShortBuffer {
		t.Errorf("short U64: err = %v", err)
	}
}

func TestBulkUvarint32s(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]uint32, 1000)
	for i := range vs {
		vs[i] = rng.Uint32() >> uint(rng.Intn(32))
	}
	enc := AppendUvarint32s(nil, vs)
	n := 0
	for i, want := range vs {
		got, k, err := Uvarint32(enc[n:])
		if err != nil || got != want {
			t.Fatalf("value %d: got %d, %v; want %d", i, got, err, want)
		}
		n += k
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d bytes", n, len(enc))
	}
}

func TestDecodeIntoReusedBuffer(t *testing.T) {
	vs := []uint32{9, 8, 7}
	enc, err := PutSimple9(nil, vs)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []uint32{1, 2}
	out, _, err := Simple9(enc, len(vs), prefix)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 2, 9, 8, 7}
	for i, v := range want {
		if out[i] != v {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], v)
		}
	}
}

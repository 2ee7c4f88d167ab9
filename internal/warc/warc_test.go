package warc

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// readAll collects every record a Reader yields from r.
func readAll(r io.Reader) ([]Record, error) {
	wr := NewReader(r)
	var out []Record
	for {
		rec, err := wr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func TestRoundTrip(t *testing.T) {
	recs := []Record{
		{URL: "http://a.example/1", Body: []byte("first body")},
		{URL: "http://a.example/2", Body: nil},
		{URL: "", Body: []byte("no url")},
		{URL: "http://b.example/" + strings.Repeat("x", 500), Body: bytes.Repeat([]byte{0}, 10000)},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].URL != recs[i].URL || !bytes.Equal(got[i].Body, recs[i].Body) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(urls [][]byte, bodies [][]byte) bool {
		n := len(urls)
		if len(bodies) < n {
			n = len(bodies)
		}
		var recs []Record
		for i := 0; i < n; i++ {
			u := urls[i]
			if len(u) > MaxURLLen {
				u = u[:MaxURLLen]
			}
			recs = append(recs, Record{URL: string(u), Body: bodies[i]})
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := readAll(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i].URL != recs[i].URL || !bytes.Equal(got[i].Body, recs[i].Body) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcatenatedFilesStream(t *testing.T) {
	// Two independently written streams concatenate into one valid file.
	var a, b bytes.Buffer
	wa, wb := NewWriter(&a), NewWriter(&b)
	wa.Write(Record{URL: "u1", Body: []byte("b1")})
	wa.Flush()
	wb.Write(Record{URL: "u2", Body: []byte("b2")})
	wb.Flush()
	both := append(a.Bytes(), b.Bytes()...)
	recs, err := readAll(bytes.NewReader(both))
	if err != nil || len(recs) != 2 || recs[1].URL != "u2" {
		t.Fatalf("concatenated read: %v, %d records", err, len(recs))
	}
}

func TestCorruptInputs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Record{URL: "http://x", Body: []byte("body bytes here")})
	w.Flush()
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if _, err := readAll(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations: every prefix must yield EOF (at a record boundary,
	// position 0) or ErrCorrupt — never a panic or phantom record.
	for i := 1; i < len(data); i++ {
		recs, err := readAll(bytes.NewReader(data[:i]))
		if err == nil && len(recs) > 0 {
			t.Fatalf("truncation to %d produced %d records", i, len(recs))
		}
	}
	// Oversized declared body.
	huge := []byte{'W', 'R', 'E', 'C', 1, 'u', 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	if _, err := readAll(bytes.NewReader(huge)); err == nil {
		t.Error("oversized body length accepted")
	}
}

// TestHostileLengthAllocation is the regression test for the unclamped
// allocations alloccap flagged here: a record header claiming a huge
// body backed by almost no bytes must fail with ErrCorrupt after
// allocating at most a read chunk, not the claimed size up front.
func TestHostileLengthAllocation(t *testing.T) {
	// "WREC", URL length 1, URL "u", body length MaxBodyLen (valid per
	// the header check), then only three bytes of body.
	hostile := []byte{'W', 'R', 'E', 'C', 1, 'u'}
	hostile = appendUvarint(hostile, MaxBodyLen)
	hostile = append(hostile, 'a', 'b', 'c')

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := readAll(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile body length: got err %v, want ErrCorrupt", err)
	}
	// TotalAlloc is monotonic, so the delta is exact regardless of GC.
	// Claimed size is 1 GiB; allow a generous 4 MiB for test machinery.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 4<<20 {
		t.Fatalf("hostile record allocated %d bytes; allocation is not clamped by available input", delta)
	}

	// Same shape on the URL: max URL length claimed, no URL bytes.
	hostile = appendUvarint([]byte{'W', 'R', 'E', 'C'}, MaxURLLen)
	if _, err := readAll(bytes.NewReader(hostile)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile URL length: got err %v, want ErrCorrupt", err)
	}
}

// TestReadExactBoundary exercises readExact around the chunk size so the
// chunked path reassembles multi-chunk bodies byte-perfectly.
func TestReadExactBoundary(t *testing.T) {
	for _, n := range []int{0, 1, allocChunk - 1, allocChunk, allocChunk + 1, 3*allocChunk + 7} {
		want := bytes.Repeat([]byte{byte(n)}, n)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(Record{URL: "u", Body: want}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		recs, err := readAll(&buf)
		if err != nil || len(recs) != 1 {
			t.Fatalf("n=%d: %v, %d records", n, err, len(recs))
		}
		if !bytes.Equal(recs[0].Body, want) {
			t.Fatalf("n=%d: body mismatch", n)
		}
	}
}

// FuzzWARCRead drives the untrusted-header path: arbitrary bytes must
// never panic, and whatever decodes must survive a write/read round
// trip. The hostile-length shapes from TestHostileLengthAllocation are
// seeds, so the chunked readExact path is always exercised.
func FuzzWARCRead(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write(Record{URL: "http://x", Body: []byte("body bytes")})
	_ = w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte{'W', 'R', 'E', 'C', 1, 'u'})
	f.Add(appendUvarint([]byte{'W', 'R', 'E', 'C'}, MaxURLLen))
	f.Add(append(appendUvarint([]byte{'W', 'R', 'E', 'C', 1, 'u'}, MaxBodyLen), 'a', 'b', 'c'))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatalf("re-encoding decoded record: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := readAll(&out)
		if err != nil || len(again) != len(recs) {
			t.Fatalf("round trip: %v, %d records, want %d", err, len(again), len(recs))
		}
		for i := range recs {
			if again[i].URL != recs[i].URL || !bytes.Equal(again[i].Body, recs[i].Body) {
				t.Fatalf("round trip: record %d mismatch", i)
			}
		}
	})
}

func appendUvarint(dst []byte, v uint32) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func TestWriterRejectsOversized(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Record{URL: strings.Repeat("u", MaxURLLen+1)}); err == nil {
		t.Error("oversized URL accepted")
	}
}

func TestFileHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.warc")
	recs := []Record{{URL: "a", Body: []byte("1")}, {URL: "b", Body: []byte("2")}}
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(bytes.NewReader(data))
	if err != nil || len(got) != 2 || got[1].URL != "b" {
		t.Fatalf("reading back what WriteFile wrote: %v, %v", got, err)
	}
}

func TestEmptyStream(t *testing.T) {
	recs, err := readAll(bytes.NewReader(nil))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty stream: %v, %d records", err, len(recs))
	}
}

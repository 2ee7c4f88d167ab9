package collection

import (
	"errors"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, m *Manifest) *Manifest {
	t.Helper()
	got, err := UnmarshalManifest(m.Marshal(nil))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	return got
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Generation: 7,
		NextSeq:    12,
		OpenSeg:    "seg-00000011",
		Segments: []Segment{
			{Path: "seg-00000001", Docs: 100},
			{Path: "shards/sub", Docs: 0},
			{Path: "seg-00000009", Docs: 1},
		},
		Tombstones: []int{0, 3, 99, 100},
	}
	got := roundTrip(t, m)
	if got.Generation != 7 || got.NextSeq != 12 || got.OpenSeg != m.OpenSeg {
		t.Fatalf("got %+v", got)
	}
	if len(got.Segments) != 3 || got.Segments[1].Path != "shards/sub" || got.Segments[0].Docs != 100 {
		t.Fatalf("segments %+v", got.Segments)
	}
	if len(got.Tombstones) != 4 || got.Tombstones[3] != 100 {
		t.Fatalf("tombstones %v", got.Tombstones)
	}
}

func TestManifestRoundTripDicts(t *testing.T) {
	m := &Manifest{
		Generation: 4,
		NextSeq:    9,
		Dicts:      []Dict{{ID: 1, Path: "dict-00000001"}, {ID: 3, Path: "dict-00000003"}},
		Segments: []Segment{
			{Path: "seg-00000001", Docs: 10, Dict: 1, Raw: 4096},
			{Path: "seg-00000005", Docs: 2},
			{Path: "seg-00000007", Docs: 7, Dict: 3, Raw: 1 << 40},
		},
	}
	got := roundTrip(t, m)
	if len(got.Dicts) != 2 || got.Dicts[0] != m.Dicts[0] || got.Dicts[1] != m.Dicts[1] {
		t.Fatalf("dicts %+v", got.Dicts)
	}
	for i, s := range got.Segments {
		if s != m.Segments[i] {
			t.Fatalf("segment %d: got %+v, want %+v", i, s, m.Segments[i])
		}
	}
}

// TestManifestRejectsV1: version 1 (no dictionary list, no per-segment
// dict/raw fields) was retired with the legacy DICT migration; a v1
// manifest must be refused as corrupt, not misparsed as v2.
func TestManifestRejectsV1(t *testing.T) {
	if _, err := UnmarshalManifest(rawV1Manifest()); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("v1 manifest: %v, want ErrCorruptManifest", err)
	}
}

// rawV1Manifest hand-rolls a well-formed version-1 manifest: the v2
// layout minus the dict list and the per-segment dict/raw fields.
func rawV1Manifest() []byte {
	const openSeg, seg = "seg-00000002", "seg-00000001"
	v1 := append([]byte(headerMagic), 1)
	v1 = append(v1, 7, 3) // generation, nextSeq
	v1 = append(v1, byte(len(openSeg)))
	v1 = append(v1, openSeg...)
	v1 = append(v1, 1) // segment count
	v1 = append(v1, byte(len(seg)))
	v1 = append(v1, seg...)
	v1 = append(v1, 5)    // docs
	v1 = append(v1, 1, 2) // tombstone count, delta
	return append(v1, footerMagic...)
}

func TestManifestRoundTripMinimal(t *testing.T) {
	got := roundTrip(t, &Manifest{Generation: 1, NextSeq: 1})
	if got.Generation != 1 || len(got.Segments) != 0 || len(got.Tombstones) != 0 || got.OpenSeg != "" {
		t.Fatalf("got %+v", got)
	}
}

func TestManifestRejectsHostile(t *testing.T) {
	base := &Manifest{Generation: 3, NextSeq: 5, Segments: []Segment{{Path: "seg-00000001", Docs: 4}}}
	cases := []struct {
		name   string
		mutate func() []byte
	}{
		{"empty", func() []byte { return nil }},
		{"bad magic", func() []byte {
			b := base.Marshal(nil)
			b[0] = 'X'
			return b
		}},
		{"bad version", func() []byte {
			b := base.Marshal(nil)
			b[4] = 99
			return b
		}},
		{"truncated", func() []byte {
			b := base.Marshal(nil)
			return b[:len(b)-5]
		}},
		{"trailing bytes", func() []byte {
			return append(base.Marshal(nil), 0)
		}},
		{"absolute segment path", func() []byte {
			m := *base
			m.Segments = []Segment{{Path: "/etc/passwd", Docs: 1}}
			return m.Marshal(nil)
		}},
		{"escaping segment path", func() []byte {
			m := *base
			m.Segments = []Segment{{Path: "../outside", Docs: 1}}
			return m.Marshal(nil)
		}},
		{"duplicate segment", func() []byte {
			m := *base
			m.Segments = []Segment{{Path: "a", Docs: 1}, {Path: "./a", Docs: 1}}
			return m.Marshal(nil)
		}},
		{"open segment with separator", func() []byte {
			m := *base
			m.OpenSeg = "sub/seg"
			return m.Marshal(nil)
		}},
		{"segment naming open segment", func() []byte {
			m := *base
			m.OpenSeg = "seg-00000001"
			return m.Marshal(nil)
		}},
		{"unsorted tombstones", func() []byte {
			// Hand-roll: Marshal delta-codes, so descending input would be
			// re-sorted by accident; corrupt a valid encoding instead by
			// zeroing a delta (duplicate id).
			m := *base
			m.Tombstones = []int{5, 5}
			return m.Marshal(nil)
		}},
		{"generation zero", func() []byte {
			m := *base
			m.Generation = 0
			return m.Marshal(nil)
		}},
		{"dict ids not ascending", func() []byte {
			m := *base
			m.Dicts = []Dict{{ID: 2, Path: "dict-00000002"}, {ID: 2, Path: "dict-00000003"}}
			return m.Marshal(nil)
		}},
		{"dict id zero", func() []byte {
			m := *base
			m.Dicts = []Dict{{ID: 0, Path: "dict-00000000"}}
			return m.Marshal(nil)
		}},
		{"duplicate dict path", func() []byte {
			m := *base
			m.Dicts = []Dict{{ID: 1, Path: "d"}, {ID: 2, Path: "./d"}}
			return m.Marshal(nil)
		}},
		{"escaping dict path", func() []byte {
			m := *base
			m.Dicts = []Dict{{ID: 1, Path: "../outside"}}
			return m.Marshal(nil)
		}},
		{"segment references unknown dict", func() []byte {
			m := *base
			m.Segments = []Segment{{Path: "seg-00000001", Docs: 4, Dict: 9}}
			return m.Marshal(nil)
		}},
		{"segment naming dict file", func() []byte {
			m := *base
			m.Dicts = []Dict{{ID: 1, Path: "dict-00000001"}}
			m.Segments = []Segment{{Path: "dict-00000001", Docs: 4, Dict: 1}}
			return m.Marshal(nil)
		}},
	}
	for _, tc := range cases {
		if _, err := UnmarshalManifest(tc.mutate()); !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("%s: err = %v, want ErrCorruptManifest", tc.name, err)
		}
	}
}

// A declared count far beyond the actual bytes must fail before any
// large allocation.
func TestManifestCountAmplification(t *testing.T) {
	b := (&Manifest{Generation: 1, NextSeq: 1}).Marshal(nil)
	// Splice an absurd segment count where the real one (0) sits. The
	// count field follows header(5) + gen(1) + seq(1) + openseg len(1).
	pos := 8
	hostile := append([]byte{}, b[:pos]...)
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // huge uvarint
	hostile = append(hostile, b[pos+1:]...)
	_, err := UnmarshalManifest(hostile)
	if !errors.Is(err, ErrCorruptManifest) || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("err = %v", err)
	}
}

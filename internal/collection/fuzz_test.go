package collection

import (
	"bytes"
	"testing"
)

// FuzzManifestUnmarshal asserts the generation-manifest parser never
// panics or over-allocates on hostile bytes, and that accepted
// manifests re-marshal to an equivalent (accepted) form.
func FuzzManifestUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Manifest{Generation: 1, NextSeq: 1}).Marshal(nil))
	f.Add((&Manifest{
		Generation: 9, NextSeq: 4, OpenSeg: "seg-00000003",
		Segments:   []Segment{{Path: "seg-00000001", Docs: 3}, {Path: "sub/shardset", Docs: 8}},
		Tombstones: []int{1, 2, 9},
	}).Marshal(nil))
	f.Add((&Manifest{
		Generation: 12, NextSeq: 8,
		Dicts: []Dict{{ID: 1, Path: "dict-00000001"}, {ID: 5, Path: "dict-00000005"}},
		Segments: []Segment{
			{Path: "seg-00000001", Docs: 3, Dict: 1, Raw: 900},
			{Path: "seg-00000006", Docs: 2, Dict: 5, Raw: 512},
			{Path: "seg-00000002", Docs: 1},
		},
	}).Marshal(nil))
	// A version-1 manifest (no dictionary list): retired, must be rejected.
	f.Add([]byte("LIVC\x01\x05\x02\x00\x01\x0cseg-00000001\x04\x00LIVE"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalManifest(data)
		if err != nil {
			return
		}
		if data[4] != version {
			t.Fatalf("accepted a version-%d manifest", data[4])
		}
		re := m.Marshal(nil)
		m2, err := UnmarshalManifest(re)
		if err != nil {
			t.Fatalf("re-marshal rejected: %v", err)
		}
		if !bytes.Equal(re, m2.Marshal(nil)) {
			t.Fatalf("marshal not canonical")
		}
	})
}

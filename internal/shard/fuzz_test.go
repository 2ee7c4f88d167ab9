package shard

import "testing"

// FuzzManifestUnmarshal throws arbitrary bytes at the legacy manifest
// parser: no input may panic, and none may make it allocate more entries
// than the bytes it was given could encode (a shard costs at least two).
// There is no round trip to close: the format has no encoder. The
// collection's FuzzManifestUnmarshal round-trips the one that exists.
func FuzzManifestUnmarshal(f *testing.F) {
	f.Add([]byte("SHRD\x01\x03rlz\x02\x0ashard-0000\x07\x0ashard-0001\x00SHRE"))
	f.Add([]byte("SHRD\x01\x03raw\x01\x01x\x01SHRE"))
	f.Add([]byte("SHRD"))
	f.Add([]byte("SHRD\x01\x03raw\x02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalManifest(data)
		if err != nil {
			return
		}
		if len(m.Shards) == 0 || 2*len(m.Shards) > len(data) {
			t.Fatalf("%d bytes decoded to %d shards", len(data), len(m.Shards))
		}
		for i, s := range m.Shards {
			if s.Path == "" || s.Docs < 0 {
				t.Fatalf("shard %d = %+v passed validation", i, s)
			}
		}
	})
}

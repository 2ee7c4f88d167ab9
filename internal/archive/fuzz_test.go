// External test package: importing internal/shard here registers the
// manifest path-formats (its own legacy one and, through it, the
// collection's) without an archive <-> shard import cycle, so the fuzzer
// covers every registered magic including the manifests'.
package archive_test

import (
	"bytes"
	"fmt"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/rlz"
	_ "rlz/internal/shard"
)

// FuzzArchiveOpenBytes throws arbitrary bytes at the auto-detecting
// opener: no input may panic, any archive that opens must read its
// documents deterministically, and manifest-magic input must be turned
// away with ErrNeedsPath rather than parsed. Seeded with valid archives
// of all three backends, the corrupt-archive corpus shapes (truncated
// footers, flipped magic, future versions), and a legacy shard manifest.
func FuzzArchiveOpenBytes(f *testing.F) {
	docs := make([][]byte, 6)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf("<html><body>document %d shared boilerplate text</body></html>", i))
	}
	var collection []byte
	for _, d := range docs {
		collection = append(collection, d...)
	}
	dict := rlz.SampleEven(collection, len(collection)/4+1, 64)
	for _, opts := range []archive.Options{
		{Backend: archive.RLZ, Dict: dict, Codec: rlz.CodecZV},
		{Backend: archive.Block, BlockSize: 256},
		{Backend: archive.Raw},
	} {
		var buf bytes.Buffer
		if _, err := archive.Build(&buf, archive.FromBodies(docs), opts); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(bytes.Clone(data))
		f.Add(bytes.Clone(data[:len(data)-6])) // truncated footer
		flipped := bytes.Clone(data)
		flipped[0] ^= 0xFF
		f.Add(flipped) // unknown magic
		versioned := bytes.Clone(data)
		versioned[4] = 99
		f.Add(versioned) // future version
	}
	// A whole legacy shard manifest, as the encoder that is gone wrote it.
	f.Add([]byte("SHRD\x01\x03rlz\x02\x0ashard-0000\x03\x0ashard-0001\x03SHRE"))
	f.Add([]byte("SHRD"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := archive.OpenBytes(data)
		if err != nil {
			return
		}
		defer r.Close()
		st := r.Stats()
		if st.NumDocs != r.NumDocs() {
			t.Fatalf("Stats().NumDocs %d != NumDocs() %d", st.NumDocs, r.NumDocs())
		}
		for id := 0; id < r.NumDocs() && id < 64; id++ {
			a, errA := r.Get(id)
			b, errB := r.Get(id)
			if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
				t.Fatalf("document %d reads non-deterministically", id)
			}
			if errA == nil {
				if _, _, err := r.Extent(id); err != nil {
					t.Fatalf("document %d decodes but Extent fails: %v", id, err)
				}
			}
		}
	})
}

package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rlz/internal/corpus"
	"rlz/internal/rlz"
)

// pinnedArchiveDigests are the SHA-256 of archive.Build's output for two
// seeded corpora, recorded at commit 06cb48b (before the k-gram ladder
// replaced the dense jump table) and never regenerated since: a change to
// factorization, pair encoding or the container that moves one stored
// byte fails here. Worker count is not part of the key — every digest
// must hold at Workers 1 and 4.
var pinnedArchiveDigests = map[string]string{
	"gov/ZV":  "512bffd9dd87b6484fd3e927a684e12e7a8e2a87c9b04fea0586a960c6d2f434",
	"gov/ZZ":  "cdf029d14ca1a71fac44de9a636224563844bc808ac84a8c994c0753eafe8703",
	"wiki/ZV": "bc11f33bd8bb56070eba7f108ab0169e4c4bf22187bc82dfa036a713fe2d7c30",
	"wiki/ZZ": "5b7a9644ebe8db90b501e016f42a168efc61f6200295a47fc950bf25dd409cb6",
	// Recorded when PV became the default codec, and again when its
	// records took the repeats form in place of zlib positions and its
	// header version 2 (TestParentPVArchiveReads keeps the earlier
	// bytes readable); the four above moved with neither.
	"gov/PV":  "39b5c2d1c94dc73d6650a02ef4ff24b66987f7809e2b287bf911b1afc519313b",
	"wiki/PV": "f23b338175922476e1402f0e4304b96247e87dd3186672e1d96681e08b5813b1",
}

func TestArchiveBytesPinned(t *testing.T) {
	for _, prof := range []corpus.Profile{corpus.Gov, corpus.Wiki} {
		c := corpus.Generate(prof, 1<<20, 5)
		collection := c.Bytes()
		dict := rlz.SampleEven(collection, len(collection)/100, 1024)
		bodies := make([][]byte, len(c.Docs))
		for i, d := range c.Docs {
			bodies[i] = d.Body
		}
		for _, codec := range []rlz.PairCodec{rlz.CodecZV, rlz.CodecZZ, rlz.CodecPV} {
			key := prof.Name + "/" + codec.String()
			for _, workers := range []int{1, 4} {
				var buf bytes.Buffer
				if _, err := Build(&buf, FromBodies(bodies), Options{Dict: dict, Codec: codec, Workers: workers}); err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != pinnedArchiveDigests[key] {
					t.Errorf("%s workers=%d: %d bytes, sha256 %s, pinned %s",
						key, workers, buf.Len(), got, pinnedArchiveDigests[key])
				}
			}
		}
	}
}

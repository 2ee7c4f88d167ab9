package archive

import (
	"io"
	"testing"

	"rlz/internal/corpus"
	"rlz/internal/rlz"
)

// TestParallelBuildAllocsPerDocument pins what one document costs the
// parallel RLZ build in heap allocations: its record, and nothing that
// scales with its factor count. The factor slice, the raw position and
// length staging and the record's assembly buffer stay with the worker
// (or the codec's scratch pool), so a document of ~430 factors no longer
// grows five slices from nil. At commit 06cb48b this read 46.6 per
// document (ZV) and 50.1 (ZZ); it reads 1.0–1.1 now. ZS read 2.06 while
// its Simple9 lengths were staged in a slice made per document.
func TestParallelBuildAllocsPerDocument(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := corpus.Generate(corpus.Gov, 2<<20, 5)
	collection := c.Bytes()
	bodies := make([][]byte, len(c.Docs))
	for i, d := range c.Docs {
		bodies[i] = d.Body
	}
	dict, err := rlz.NewDictionary(rlz.SampleEven(collection, len(collection)/100, 1024))
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []rlz.PairCodec{rlz.CodecZV, rlz.CodecZZ, rlz.CodecZS, rlz.CodecPV} {
		opts := Options{PreparedDict: dict, Codec: codec, Workers: 2}
		build := func(n int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Build(io.Discard, FromBodies(bodies[:n]), opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		// The difference of two sizes cancels what a build costs whatever
		// its length (writer, pipeline, goroutines, pools warming).
		half := len(bodies) / 2
		perDoc := (build(len(bodies)) - build(half)) / float64(len(bodies)-half)
		t.Logf("%s: %.2f allocations per document over %d documents", codec, perDoc, len(bodies))
		if perDoc > 2 {
			t.Errorf("%s: %.2f allocations per document, want at most 2", codec, perDoc)
		}
	}
}

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

// writeCounter counts the Write calls that reach it.
type writeCounter struct{ writes, bytes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestBuildBuffersWrites pins how many writes a 500-document build makes
// on its io.Writer: one per 64 KiB of output, not one per record, on the
// sequential path and on the parallel one, whose committer writes
// encoded records, for every backend.
func TestBuildBuffersWrites(t *testing.T) {
	c := corpus.Generate(corpus.Gov, 4<<20, 3)
	bodies := make([][]byte, 500)
	for i := range bodies {
		bodies[i] = c.Docs[i%len(c.Docs)].Body
	}
	dict := rlz.SampleEven(c.Bytes(), 64<<10, 1024)
	for _, opts := range []Options{
		{Backend: RLZ, Dict: dict, Workers: 1},
		{Backend: RLZ, Dict: dict, Workers: 4},
		{Backend: Block, Workers: 1},
		{Backend: Raw},
	} {
		var w writeCounter
		if _, err := Build(&w, FromBodies(bodies), opts); err != nil {
			t.Fatal(err)
		}
		// A write the buffer passes straight through (the dictionary)
		// can cost one more write for the buffered bytes before it.
		if most := 2*(w.bytes/buildBuffer) + 2; w.writes > most {
			t.Errorf("%s workers=%d: %d writes for %d bytes, want at most %d", opts.Backend, opts.Workers, w.writes, w.bytes, most)
		}
		t.Logf("%s workers=%d: %d writes for %d bytes", opts.Backend, opts.Workers, w.writes, w.bytes)
	}
}

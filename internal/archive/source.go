package archive

import (
	"io"
	"os"

	"rlz/internal/rlz"
	"rlz/internal/warc"
)

// Doc is one document flowing through a build: the body plus a name used
// in error messages (a path, a URL, or a synthetic label).
type Doc struct {
	Name string
	Body []byte
}

// DocSource streams a collection one document at a time, so builds never
// need the whole collection resident. Next returns io.EOF after the last
// document. Sources are single-use; build passes that need the collection
// twice (e.g. dictionary sampling) open a fresh source per pass.
type DocSource interface {
	Next() (Doc, error)
}

// sliceSource streams an in-memory document list.
type sliceSource struct {
	docs []Doc
	i    int
}

func (s *sliceSource) Next() (Doc, error) {
	if s.i >= len(s.docs) {
		return Doc{}, io.EOF
	}
	d := s.docs[s.i]
	s.i++
	return d, nil
}

// TotalSize reports the collection size without a streaming pass.
func (s *sliceSource) TotalSize() (int64, error) {
	var total int64
	for _, d := range s.docs {
		total += int64(len(d.Body))
	}
	return total, nil
}

// FromDocs streams an in-memory collection (already materialized, e.g. by
// the experiment harness's corpus generator).
func FromDocs(docs []Doc) DocSource {
	return &sliceSource{docs: docs}
}

// FromBodies streams raw document bodies with synthetic names.
func FromBodies(bodies [][]byte) DocSource {
	docs := make([]Doc, len(bodies))
	for i, b := range bodies {
		docs[i] = Doc{Body: b}
	}
	return &sliceSource{docs: docs}
}

// fileSource reads one file per document, lazily: only the current
// document is resident.
type fileSource struct {
	paths []string
	i     int
}

func (s *fileSource) Next() (Doc, error) {
	if s.i >= len(s.paths) {
		return Doc{}, io.EOF
	}
	p := s.paths[s.i]
	s.i++
	body, err := os.ReadFile(p)
	if err != nil {
		return Doc{}, err
	}
	return Doc{Name: p, Body: body}, nil
}

// TotalSize reports the collection size from file metadata, sparing
// SampleDict's measuring pass a full read of every file.
func (s *fileSource) TotalSize() (int64, error) {
	var total int64
	for _, p := range s.paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// FromFiles streams the named files, one document each, in the given
// order. Files are read lazily as the build consumes them.
func FromFiles(paths []string) DocSource {
	return &fileSource{paths: paths}
}

// warcSource streams records from a warc collection file. The file is
// closed at EOF or on the first error.
type warcSource struct {
	f    *os.File
	r    *warc.Reader
	done bool
}

func (s *warcSource) Next() (Doc, error) {
	if s.done {
		return Doc{}, io.EOF
	}
	rec, err := s.r.Read()
	if err != nil {
		s.done = true
		_ = s.f.Close()
		return Doc{}, err
	}
	return Doc{Name: rec.URL, Body: rec.Body}, nil
}

// Close releases the underlying file; Build and SampleDict call it when
// they abandon a source mid-stream (on error), so aborted builds do not
// leak descriptors. Idempotent with the EOF-triggered close in Next.
func (s *warcSource) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	return s.f.Close()
}

// FromWARC streams documents from a warc collection file (see cmd/rlzgen)
// without loading the file into memory.
func FromWARC(path string) (DocSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &warcSource{f: f, r: warc.NewReader(f)}, nil
}

// TotalSizer is implemented by sources that can report the collection's
// total byte size without streaming every document (file metadata, an
// in-memory slice). SampleDict uses it to skip its measuring pass.
type TotalSizer interface {
	TotalSize() (int64, error)
}

// DictBudget is the dictionary size sampled from a collection of total
// document bytes: dictSize when positive, else the repository's default
// of 1% of the collection with a 4 KiB floor.
func DictBudget(total int64, dictSize int) int {
	if dictSize > 0 {
		return dictSize
	}
	return max(int(total/100), 4096)
}

// SampleDict builds an RLZ dictionary by the paper's even-sampling scheme
// (§3.3) from a streamed collection: one pass to measure the collection
// (skipped when the source is a TotalSizer), one pass to copy the sample
// windows. openSrc must return a fresh source over the same documents
// each call. The dictionary's size is DictBudget(total, dictSize). The
// result is byte-identical to rlz.SampleEven over the concatenated
// collection. Returns the dictionary and the collection's total size.
func SampleDict(openSrc func() (DocSource, error), dictSize, sampleSize int) ([]byte, int64, error) {
	src, err := openSrc()
	if err != nil {
		return nil, 0, err
	}
	total, err := measure(src)
	if err != nil {
		return nil, 0, err
	}
	sampler := rlz.NewEvenSampler(total, DictBudget(total, dictSize), sampleSize)
	src, err = openSrc()
	if err != nil {
		return nil, 0, err
	}
	for {
		d, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if c, ok := src.(io.Closer); ok {
				_ = c.Close()
			}
			return nil, 0, err
		}
		sampler.Write(d.Body)
	}
	return sampler.Bytes(), total, nil
}

// measure sums the collection's size, preferring the source's cheap
// TotalSize over a streaming pass. The source is consumed (or closed)
// either way.
func measure(src DocSource) (int64, error) {
	if ts, ok := src.(TotalSizer); ok {
		total, err := ts.TotalSize()
		if c, ok := src.(io.Closer); ok {
			_ = c.Close()
		}
		return total, err
	}
	var total int64
	for {
		d, err := src.Next()
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			if c, ok := src.(io.Closer); ok {
				_ = c.Close()
			}
			return 0, err
		}
		total += int64(len(d.Body))
	}
}

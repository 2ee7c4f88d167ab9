// Package rlz implements Relative Lempel-Ziv factorization — the core
// contribution of Hoobin, Puglisi & Zobel (VLDB 2011).
//
// A collection is compressed against a small static dictionary built by
// sampling the collection at evenly spaced offsets (§3.3 of the paper).
// Each document is factorized independently into (position, length) pairs
// referencing the dictionary (§3, Figure 1); a pair with length zero
// carries a literal byte that does not occur in the dictionary. Because
// the dictionary never adapts, any document decodes in isolation — the
// property that makes RLZ dramatically faster at random access than
// blocked adaptive compressors.
//
// The package provides dictionary construction (even, prefix and random
// sampling), the suffix-array factorizer (Factorizer: each factor opens
// through the dictionary's k-gram ladder, then narrows by boundary skip
// and interval search), the decoder, the paper's four position–length
// pair codecs (ZZ, ZV, UZ, UV from §3.4), and the statistics the paper
// reports (average factor length, dictionary utilization, factor-length
// histograms).
package rlz

import (
	"errors"
	"fmt"
	"sync"

	"rlz/internal/suffix"
)

// Dictionary is an immutable RLZ dictionary: the sampled text plus its
// suffix array. It is safe for concurrent use by multiple factorizers and
// decoders once built.
//
// Decoding (Figure 2 of the paper) needs only the text, so decode-only
// dictionaries — the common case when serving an archive — skip suffix
// array construction entirely; the array is built lazily if such a
// dictionary is later asked to factorize.
type Dictionary struct {
	data []byte
	once sync.Once
	sa   *suffix.Array

	// Fast factorization engine state, both lazily built: the k-gram
	// ladder, shared by every Factorizer over this dictionary, and a pool
	// of ready default-tuned Factorizers so Factorize never resolves it
	// per call.
	lonce  sync.Once
	lad    suffix.Ladder
	fzPool sync.Pool // of *Factorizer with default FactorizerOptions
}

// ErrEmptyDictionary is returned when building a dictionary from no data.
var ErrEmptyDictionary = errors.New("rlz: empty dictionary")

func checkDictData(data []byte) error {
	if len(data) == 0 {
		return ErrEmptyDictionary
	}
	if int64(len(data)) > int64(1)<<31-1 {
		return fmt.Errorf("rlz: dictionary of %d bytes exceeds 2 GiB limit", len(data))
	}
	return nil
}

// NewDictionary indexes data as an RLZ dictionary, building its suffix
// array eagerly. The slice is retained; callers must not mutate it.
func NewDictionary(data []byte) (*Dictionary, error) {
	if err := checkDictData(data); err != nil {
		return nil, err
	}
	d := &Dictionary{data: data}
	d.once.Do(func() { d.sa = suffix.New(data) })
	return d, nil
}

// NewDictionaryForDecode wraps data as a decode-only dictionary: no suffix
// array is built unless the dictionary is later used for factorization.
func NewDictionaryForDecode(data []byte) (*Dictionary, error) {
	if err := checkDictData(data); err != nil {
		return nil, err
	}
	return &Dictionary{data: data}, nil
}

// NewDictionaryFromParts assembles a Dictionary from text and a previously
// computed suffix array (e.g. loaded from an archive). The suffix array is
// trusted; use Verify to check one from an untrusted source.
func NewDictionaryFromParts(data []byte, sa []int32) (*Dictionary, error) {
	if err := checkDictData(data); err != nil {
		return nil, err
	}
	if len(sa) != len(data) {
		return nil, fmt.Errorf("rlz: suffix array length %d != text length %d", len(sa), len(data))
	}
	d := &Dictionary{data: data}
	d.once.Do(func() { d.sa = suffix.NewFromParts(data, sa) })
	return d, nil
}

// index returns the suffix array view, building it on first use.
func (d *Dictionary) index() *suffix.Array {
	d.once.Do(func() { d.sa = suffix.New(d.data) })
	return d.sa
}

// ladder returns the dictionary's k-gram ladder, building it on first
// use. It is immutable and shared: N factorizers (e.g. one per build
// worker, across every shard of a set) get one ladder, built once, and it
// goes when the Dictionary does.
func (d *Dictionary) ladder() suffix.Ladder {
	d.lonce.Do(func() { d.lad = suffix.NewLadder(d.index()) })
	return d.lad
}

// Bytes returns the dictionary text. Callers must not mutate it.
func (d *Dictionary) Bytes() []byte { return d.data }

// SuffixArray returns the dictionary's suffix array, for persistence,
// building it first if this is a decode-only dictionary.
// Callers must not mutate it.
func (d *Dictionary) SuffixArray() []int32 { return d.index().SA() }

// Len returns the dictionary size in bytes.
func (d *Dictionary) Len() int { return len(d.data) }

// Verify checks that the stored suffix array really is the suffix array of
// the dictionary text. Intended for archives loaded from untrusted media.
func (d *Dictionary) Verify() bool { return d.index().Validate() }

// SelfRepetition reports the fraction of dictionary positions whose
// suffix shares at least minLen bytes with a lexicographic neighbour —
// an LCP-based estimate of internal redundancy. Redundant dictionary
// space buys no matching power (the §6 observation that motivates
// SampleIterative); values near zero mean the sample budget is being
// spent on distinct content.
func (d *Dictionary) SelfRepetition(minLen int) float64 {
	return d.index().SelfRepetition(minLen)
}

// SampleEven builds dictionary text by the paper's §3.3 technique: treat
// the collection as one string and take samples of sampleSize bytes at
// evenly spaced positions, concatenating m/s samples for a dictionary of
// dictSize bytes. If dictSize >= len(collection) the whole collection is
// copied. The result always has length min(dictSize, len(collection)).
func SampleEven(collection []byte, dictSize, sampleSize int) []byte {
	return samplePortion(collection, len(collection), dictSize, sampleSize)
}

// SamplePrefix builds dictionary text by even sampling restricted to the
// first prefixLen bytes of the collection. This models the paper's dynamic
// update experiment (Table 10): the dictionary is built when only a prefix
// of the eventual collection exists, then used to compress all of it.
func SamplePrefix(collection []byte, prefixLen, dictSize, sampleSize int) []byte {
	if prefixLen > len(collection) {
		prefixLen = len(collection)
	}
	return samplePortion(collection, prefixLen, dictSize, sampleSize)
}

func samplePortion(collection []byte, n, dictSize, sampleSize int) []byte {
	if n <= 0 || dictSize <= 0 {
		return nil
	}
	if sampleSize <= 0 {
		sampleSize = 1024
	}
	if dictSize >= n {
		out := make([]byte, n)
		copy(out, collection[:n])
		return out
	}
	numSamples := dictSize / sampleSize
	if numSamples == 0 {
		numSamples = 1
		sampleSize = dictSize
	}
	out := make([]byte, 0, numSamples*sampleSize)
	// Samples at positions 0, n/k, 2n/k, ... as in §3.3. Computing each
	// start as (i*n)/k avoids drift from integer-truncated strides.
	for i := 0; i < numSamples; i++ {
		start := int(int64(i) * int64(n) / int64(numSamples))
		end := start + sampleSize
		if end > n {
			end = n
		}
		out = append(out, collection[start:end]...)
	}
	return out
}

// EvenSampler builds dictionary text incrementally from a streamed
// collection, producing exactly the bytes SampleEven would for the same
// parameters — without the collection ever being resident. The total
// collection length must be known up front (§3.3 spaces samples evenly
// over the whole string), so callers typically make one cheap pass to
// measure and a second to sample.
type EvenSampler struct {
	out   []byte
	slots []sampleSlot
	pos   int64 // absolute stream position consumed so far
	first int   // index of the first slot not yet fully filled
	whole bool  // dictSize >= totalLen: copy the entire stream
}

// sampleSlot is one sample's source extent and destination offset.
type sampleSlot struct {
	start, end int64
	dst        int
}

// NewEvenSampler prepares a sampler for a collection of totalLen bytes.
// The parameters have the same meaning and defaults as SampleEven.
func NewEvenSampler(totalLen int64, dictSize, sampleSize int) *EvenSampler {
	s := &EvenSampler{}
	if totalLen <= 0 || dictSize <= 0 {
		return s
	}
	if sampleSize <= 0 {
		sampleSize = 1024
	}
	if int64(dictSize) >= totalLen {
		s.whole = true
		s.slots = []sampleSlot{{start: 0, end: totalLen}}
		s.out = make([]byte, 0, totalLen)
		return s
	}
	numSamples := dictSize / sampleSize
	if numSamples == 0 {
		numSamples = 1
		sampleSize = dictSize
	}
	var total int
	s.slots = make([]sampleSlot, numSamples)
	for i := range s.slots {
		start := int64(i) * totalLen / int64(numSamples)
		end := start + int64(sampleSize)
		if end > totalLen {
			end = totalLen
		}
		s.slots[i] = sampleSlot{start: start, end: end, dst: total}
		total += int(end - start)
	}
	s.out = make([]byte, total)
	return s
}

// Write consumes the next chunk of the collection stream, copying the
// portions that fall inside a sample. It never fails; the error is for
// io.Writer conformance.
func (s *EvenSampler) Write(p []byte) (int, error) {
	lo, hi := s.pos, s.pos+int64(len(p))
	// Whole-collection copy (dictSize >= totalLen) appends verbatim.
	if s.whole {
		if lo < s.slots[0].end {
			take := s.slots[0].end - lo
			if take > int64(len(p)) {
				take = int64(len(p))
			}
			s.out = append(s.out, p[:take]...)
		}
		s.pos = hi
		return len(p), nil
	}
	for s.first < len(s.slots) && s.slots[s.first].end <= lo {
		s.first++
	}
	for i := s.first; i < len(s.slots) && s.slots[i].start < hi; i++ {
		sl := s.slots[i]
		from, to := sl.start, sl.end
		if from < lo {
			from = lo
		}
		if to > hi {
			to = hi
		}
		if from >= to {
			continue
		}
		copy(s.out[sl.dst+int(from-sl.start):], p[from-lo:to-lo])
	}
	s.pos = hi
	return len(p), nil
}

// Bytes returns the sampled dictionary text. Positions never streamed
// through Write remain zero bytes; feed the full collection for a result
// identical to SampleEven.
func (s *EvenSampler) Bytes() []byte { return s.out }

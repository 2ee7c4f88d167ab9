package rlz

// Stats accumulates the factorization statistics the paper reports:
// average factor length (Tables 2 and 3), the fraction of dictionary bytes
// never referenced by any factor ("unused", Tables 2 and 3), and the
// histogram of encoded length values (Figure 3).
//
// Feed every document's factors through Observe, then read the summary
// accessors. A Stats value is tied to the dictionary it was created for.
type Stats struct {
	dictLen   int
	covered   []bool // dictionary bytes referenced by at least one factor
	numCopies int64  // factors with Len > 0
	totalLen  int64  // sum of copy-factor lengths
	hist      map[uint32]int64
}

// NewStats creates a Stats accumulator for dictionaries of d's size.
func NewStats(d *Dictionary) *Stats {
	return &Stats{
		dictLen: d.Len(),
		covered: make([]bool, d.Len()),
		hist:    make(map[uint32]int64),
	}
}

// Observe records one document's factors.
func (s *Stats) Observe(factors []Factor) {
	for _, f := range factors {
		if f.Len == 0 {
			continue
		}
		s.numCopies++
		s.totalLen += int64(f.Len)
		s.hist[f.Len]++
		for i := f.Pos; i < f.Pos+f.Len && int(i) < len(s.covered); i++ {
			s.covered[i] = true
		}
	}
}

// AvgFactorLen returns the mean length of copy factors — the paper's
// "Avg.Fact." column. Literals are excluded, matching a reading of the
// paper under which factor length statistics describe dictionary matches.
func (s *Stats) AvgFactorLen() float64 {
	if s.numCopies == 0 {
		return 0
	}
	return float64(s.totalLen) / float64(s.numCopies)
}

// UnusedPercent returns the percentage of dictionary bytes never covered
// by any factor — the paper's "Unused (%)" column.
func (s *Stats) UnusedPercent() float64 {
	if s.dictLen == 0 {
		return 0
	}
	unused := 0
	for _, c := range s.covered {
		if !c {
			unused++
		}
	}
	return 100 * float64(unused) / float64(s.dictLen)
}

// BinnedLengthHistogram buckets the length histogram into powers-of-ten
// style log bins [1,10), [10,100), ... as Figure 3's log-log plot does,
// returning the bin upper bounds and counts. Literals (length 0) are
// excluded.
func (s *Stats) BinnedLengthHistogram() (upper []uint32, counts []int64) {
	upper = []uint32{10, 100, 1000, 10000, 100000, 1 << 31}
	counts = make([]int64, len(upper))
	for v, n := range s.hist {
		for i, u := range upper {
			if v < u {
				counts[i] += n
				break
			}
		}
	}
	return upper, counts
}

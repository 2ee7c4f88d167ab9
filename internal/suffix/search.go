package suffix

// Array couples a text with its suffix array and provides the pattern
// matching primitives the RLZ factorizer needs. Array is immutable after
// construction and safe for concurrent readers.
type Array struct {
	text []byte
	sa   []int32
}

// New builds the suffix array of text with SA-IS and returns the searchable
// Array. The text is retained (not copied); callers must not mutate it.
func New(text []byte) *Array {
	return &Array{text: text, sa: Build(text)}
}

// NewFromParts assembles an Array from a text and a previously built suffix
// array, e.g. one loaded from disk. It does not validate sa; use Validate.
func NewFromParts(text []byte, sa []int32) *Array {
	return &Array{text: text, sa: sa}
}

// Text returns the underlying text. Callers must not mutate it.
func (a *Array) Text() []byte { return a.text }

// SA returns the raw suffix array. Callers must not mutate it.
func (a *Array) SA() []int32 { return a.sa }

// Len returns the length of the indexed text.
func (a *Array) Len() int { return len(a.text) }

// Interval is a half-open range [Lo, Hi) of suffix-array slots. Every
// suffix in a valid interval shares a common prefix with the pattern being
// matched; an empty interval (Lo >= Hi) means no suffix matches.
type Interval struct {
	Lo, Hi int32
}

// Empty reports whether the interval contains no suffixes.
func (iv Interval) Empty() bool { return iv.Lo >= iv.Hi }

// Size returns the number of suffixes in the interval.
func (iv Interval) Size() int32 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// All returns the interval spanning the whole suffix array — the starting
// point for a Refine chain.
func (a *Array) All() Interval {
	return Interval{0, int32(len(a.sa))}
}

// linearRefineThreshold is the interval size below which Refine switches
// from binary search to a linear scan: at small sizes the scan's
// sequential suffix-array and text accesses beat the log-time search's
// scattered probes. 24 slots won in the refine microbenchmarks.
const linearRefineThreshold = 24

// Refine narrows iv, whose suffixes all share a matching prefix of length
// depth, to the sub-interval of suffixes whose next character equals c.
// This is the paper's Refine(lb, rb, j-i, x[j]): because the suffix array
// is lexicographically ordered, both bounds are found by binary search, so
// a full factor of length l costs O(l log m) character comparisons.
//
// The searches are inlined and closure-free — this is the innermost loop
// of every archive build — and intervals at or below
// linearRefineThreshold are scanned linearly instead. Suffixes that end
// exactly at depth (no next character) sort before every continuation and
// are excluded by the lower-bound search.
func (a *Array) Refine(iv Interval, depth int32, c byte) Interval {
	if iv.Empty() {
		return Interval{}
	}
	text, sa := a.text, a.sa
	n := int32(len(text))
	lo, hi := iv.Lo, iv.Hi
	if hi-lo <= linearRefineThreshold {
		// Skip suffixes whose character at depth sorts before c (an
		// exhausted suffix sorts before everything).
		i := lo
		for i < hi {
			if p := sa[i] + depth; p < n && text[p] >= c {
				break
			}
			i++
		}
		newLo := i
		for i < hi {
			if p := sa[i] + depth; p >= n || text[p] != c {
				break
			}
			i++
		}
		return Interval{newLo, i}
	}
	// Lower bound: first slot whose character at depth is >= c.
	l, h := lo, hi
	for l < h {
		m := int32(uint32(l+h) >> 1)
		if p := sa[m] + depth; p < n && text[p] >= c {
			h = m
		} else {
			l = m + 1
		}
	}
	newLo := l
	// Upper bound: first slot whose character at depth is > c. Every slot
	// before newLo is already < c, so the search resumes from l.
	h = hi
	for l < h {
		m := int32(uint32(l+h) >> 1)
		if p := sa[m] + depth; p < n && text[p] > c {
			h = m
		} else {
			l = m + 1
		}
	}
	return Interval{newLo, l}
}

// LongestMatch finds the longest prefix of pattern that occurs in the
// indexed text, returning the occurrence's start position and the match
// length. A zero length means pattern[0] does not occur in the text at all
// (the RLZ literal case). The reported position is the lexicographically
// smallest matching suffix, mirroring the paper's return of SA_d[lb].
func (a *Array) LongestMatch(pattern []byte) (pos int32, length int32) {
	iv := a.All()
	for length = 0; length < int32(len(pattern)); length++ {
		next := a.Refine(iv, length, pattern[length])
		if next.Empty() {
			break
		}
		iv = next
	}
	if length == 0 {
		return 0, 0
	}
	return a.sa[iv.Lo], length
}

// Lookup returns the interval of suffixes having pattern as a prefix.
func (a *Array) Lookup(pattern []byte) Interval {
	iv := a.All()
	for depth := int32(0); depth < int32(len(pattern)) && !iv.Empty(); depth++ {
		iv = a.Refine(iv, depth, pattern[depth])
	}
	return iv
}

// Validate checks that the stored suffix array is a permutation of
// [0, len(text)) in strictly increasing suffix order, in O(n) time and
// O(n) space. It is the guard for arrays loaded from untrusted files.
//
// The order check is the Burkhardt–Kärkkäinen linear-time verifier (the
// same rank machinery Kasai's LCP algorithm in lcp.go builds on): a
// permutation sa is *the* suffix array iff, for every adjacent pair
// u = sa[i-1], v = sa[i], text[u] <= text[v] and, when the characters tie,
// the suffixes one past them keep the claimed order — rank[u+1] <
// rank[v+1], with the empty suffix ranking below everything. The
// comparison of suffix remainders through their claimed ranks is what
// replaces the naive byte-by-byte compare, whose adjacent-suffix overlap
// made the old implementation O(n^2) on repetitive dictionaries.
func (a *Array) Validate() bool {
	n := len(a.text)
	if len(a.sa) != n {
		return false
	}
	if n == 0 {
		return true
	}
	// rank[p] is the claimed sort position of the suffix at p; rank[n]
	// (the empty suffix) sorts below all. Filling rank doubles as the
	// permutation check: -1 marks unvisited, a repeat position would
	// overwrite a non-negative rank.
	rank := make([]int32, n+1)
	for i := range rank {
		rank[i] = -1
	}
	for i, p := range a.sa {
		if p < 0 || int(p) >= n || rank[p] >= 0 {
			return false
		}
		rank[p] = int32(i)
	}
	for i := 1; i < n; i++ {
		u, v := a.sa[i-1], a.sa[i]
		cu, cv := a.text[u], a.text[v]
		if cu > cv {
			return false
		}
		if cu == cv && rank[u+1] >= rank[v+1] {
			return false
		}
	}
	return true
}

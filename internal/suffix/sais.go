// Package suffix provides the suffix-array substrate the RLZ factorizer is
// built on: linear-time SA-IS construction over byte strings and the
// binary-search interval refinement ("Refine" in the paper's Figure 1) used
// to stream the longest dictionary match for each input position, and the
// k-gram Ladder — hashed 8-, 4- and 2-byte grams mapped to the interval
// that many Refine steps reach — that lets a factorizer open each factor
// with one lookup instead of the first k refinements.
package suffix

// Build computes the suffix array of text using the SA-IS algorithm
// (induced sorting of LMS substrings), running in O(n) time and O(n) extra
// words. The returned slice holds the start offsets of all suffixes of text
// in lexicographic order.
//
// Texts up to 2^31-1 bytes are supported, which comfortably covers the
// dictionary sizes RLZ uses (the paper's largest is 2 GB; ours are far
// smaller because the corpus is scaled down).
func Build(text []byte) []int32 {
	n := len(text)
	sa := make([]int32, n)
	if n == 0 {
		return sa
	}
	if n == 1 {
		sa[0] = 0
		return sa
	}
	// Shift the alphabet up by one and append a unique, smallest sentinel.
	// SA-IS is simplest to state (and verify) with the sentinel present;
	// we strip its suffix array entry afterwards.
	s := make([]int32, n+1)
	for i, c := range text {
		s[i] = int32(c) + 1
	}
	s[n] = 0
	full := sais(s, 257)
	copy(sa, full[1:]) // full[0] is the sentinel suffix
	return sa
}

// sais computes the suffix array of s, which must end with a unique
// sentinel 0 that appears nowhere else. k is the alphabet size (symbols are
// in [0, k)).
func sais(s []int32, k int) []int32 {
	n := len(s)
	sa := make([]int32, n)
	if n == 1 {
		sa[0] = 0
		return sa
	}

	// Classify each position S-type (true) or L-type (false).
	// The sentinel is S-type by definition.
	sType := make([]bool, n)
	sType[n-1] = true
	for i := n - 2; i >= 0; i-- {
		if s[i] < s[i+1] || (s[i] == s[i+1] && sType[i+1]) {
			sType[i] = true
		}
	}
	isLMS := func(i int) bool { return i > 0 && sType[i] && !sType[i-1] }

	// Bucket boundaries by symbol.
	counts := make([]int32, k)
	for _, c := range s {
		counts[c]++
	}
	bucketHeads := make([]int32, k)
	bucketTails := make([]int32, k)
	fillBuckets := func() {
		var sum int32
		for c := 0; c < k; c++ {
			bucketHeads[c] = sum
			sum += counts[c]
			bucketTails[c] = sum // one past the end
		}
	}

	const empty = int32(-1)
	clearSA := func() {
		for i := range sa {
			sa[i] = empty
		}
	}

	// induce completes sa from a placement of LMS suffixes at bucket tails:
	// a left-to-right scan induces all L-type suffixes, then a
	// right-to-left scan induces all S-type suffixes (overwriting the
	// provisional LMS placements with their final positions).
	induce := func() {
		fillBuckets()
		if !sType[n-1] {
			sa[bucketHeads[s[n-1]]] = int32(n - 1)
			bucketHeads[s[n-1]]++
		}
		for i := 0; i < n; i++ {
			j := sa[i]
			if j > 0 && !sType[j-1] {
				c := s[j-1]
				sa[bucketHeads[c]] = j - 1
				bucketHeads[c]++
			}
		}
		fillBuckets()
		for i := n - 1; i >= 0; i-- {
			j := sa[i]
			if j > 0 && sType[j-1] {
				c := s[j-1]
				bucketTails[c]--
				sa[bucketTails[c]] = j - 1
			}
		}
	}

	// Pass 1: approximately sort the LMS suffixes by dropping them into
	// their bucket tails in text order, then inducing. This sorts the LMS
	// *substrings* exactly, which is all the naming step needs.
	clearSA()
	fillBuckets()
	for i := 1; i < n; i++ {
		if isLMS(i) {
			c := s[i]
			bucketTails[c]--
			sa[bucketTails[c]] = int32(i)
		}
	}
	induce()

	// Collect LMS positions in the order they appear in sa.
	numLMS := 0
	for i := 1; i < n; i++ {
		if isLMS(i) {
			numLMS++
		}
	}
	sortedLMS := make([]int32, 0, numLMS+1)
	for _, j := range sa {
		if j == int32(n-1) || isLMS(int(j)) {
			sortedLMS = append(sortedLMS, j)
		}
	}

	// Name LMS substrings. Two LMS substrings get the same name iff they
	// are byte-for-byte identical over their full extent (from one LMS
	// position through the next). names is indexed by text position.
	names := make([]int32, n)
	for i := range names {
		names[i] = empty
	}
	lmsEqual := func(a, b int32) bool {
		if a == int32(n-1) || b == int32(n-1) {
			return a == b
		}
		for d := int32(0); ; d++ {
			aLMS, bLMS := d > 0 && isLMS(int(a+d)), d > 0 && isLMS(int(b+d))
			if aLMS && bLMS {
				return true
			}
			if aLMS != bLMS || s[a+d] != s[b+d] {
				return false
			}
		}
	}
	var curName int32
	names[sortedLMS[0]] = 0
	for i := 1; i < len(sortedLMS); i++ {
		if !lmsEqual(sortedLMS[i-1], sortedLMS[i]) {
			curName++
		}
		names[sortedLMS[i]] = curName
	}

	// Build the reduced string: LMS names in text order. The sentinel's
	// LMS suffix (position n-1) is last and carries the unique name 0, so
	// the reduced string again ends with a unique smallest sentinel.
	reduced := make([]int32, 0, len(sortedLMS))
	lmsPos := make([]int32, 0, len(sortedLMS))
	for i := 1; i < n; i++ {
		if isLMS(i) || i == n-1 {
			reduced = append(reduced, names[i])
			lmsPos = append(lmsPos, int32(i))
		}
	}

	// Order the LMS suffixes exactly: directly if the names are unique,
	// otherwise by recursion on the reduced string.
	var lmsOrder []int32
	if int(curName)+1 == len(reduced) {
		lmsOrder = make([]int32, len(reduced))
		for i, name := range reduced {
			lmsOrder[name] = int32(i)
		}
	} else {
		lmsOrder = sais(reduced, int(curName)+1)
	}

	// Pass 2: place the now exactly-sorted LMS suffixes at bucket tails
	// (walking the sorted order backwards so ties within a bucket keep
	// their relative order) and induce the final suffix array.
	clearSA()
	fillBuckets()
	for i := len(lmsOrder) - 1; i >= 0; i-- {
		j := lmsPos[lmsOrder[i]]
		c := s[j]
		bucketTails[c]--
		sa[bucketTails[c]] = j
	}
	induce()
	return sa
}

// BuildNaive computes the suffix array by direct comparison sorting. It is
// O(n^2 log n) in the worst case and exists to cross-check Build in tests.
func BuildNaive(text []byte) []int32 {
	sa := make([]int32, len(text))
	for i := range sa {
		sa[i] = int32(i)
	}
	// Insertion of indices into sorted order via sort.Slice would be fine,
	// but a manual merge-free approach keeps this file stdlib-sort only.
	quickSortSuffixes(text, sa)
	return sa
}

func quickSortSuffixes(text []byte, sa []int32) {
	if len(sa) < 2 {
		return
	}
	pivot := sa[len(sa)/2]
	var less, equal, greater []int32
	for _, s := range sa {
		switch compareSuffixes(text, s, pivot) {
		case -1:
			less = append(less, s)
		case 0:
			equal = append(equal, s)
		default:
			greater = append(greater, s)
		}
	}
	quickSortSuffixes(text, less)
	quickSortSuffixes(text, greater)
	copy(sa, less)
	copy(sa[len(less):], equal)
	copy(sa[len(less)+len(equal):], greater)
}

func compareSuffixes(text []byte, a, b int32) int {
	for a < int32(len(text)) && b < int32(len(text)) {
		if text[a] != text[b] {
			if text[a] < text[b] {
				return -1
			}
			return 1
		}
		a++
		b++
	}
	switch {
	case a == b:
		return 0
	case a > b: // suffix a is shorter, so it sorts first
		return -1
	default:
		return 1
	}
}
